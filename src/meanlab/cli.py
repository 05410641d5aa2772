"""Command-line interface.

Subcommands
-----------
eval          evaluate a system on one weighting / value vector
axioms        run the randomized law checks and report counterexamples
recover       identify the exponent of a black-box system from probes
characterize  recover an exponent, then stress-test the identification
sandwich      bracket a system value between nearby rational weightings

Systems are given either as ``--builtin P`` (a power mean; P is a float,
``inf``, ``-inf``, or ``0``, optionally prefixed ``p=``) or as ``--dsl EXPR``
(an expression in the small mean-expression language; see the package README
for the grammar).

Exit codes: 0 success / property holds; 1 a property failed, a counterexample
or degenerate identification was found, or the system errored while being
evaluated; 2 bad usage or malformed input.

Reports are emitted as JSON (default) or CSV in long ``record,field,value``
form, with sorted keys and fixed separators so equal results are equal bytes.
``--seed`` defaults to the ``MEANLAB_SEED`` environment variable when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .characterize import (
    CharacterizationConfig,
    _GRID_CAP,
    _SAMPLE_COUNT,
    _check_sample_count,
    characterization_to_dict,
    rational_sandwich,
    recover_exponent,
    recovery_to_dict,
    sandwich_to_dict,
    verify_characterization,
)
from .core import Exponent, ValueVector, Weighting
from .dsl import ExprSyntaxError
from .harness import (
    CheckConfig,
    deterministic_json,
    run_full_suite,
    suite_passed,
    suite_to_dict,
)
from .systems import MeanSystem, SystemEvalError, builtin_power_mean_system, dsl_mean_system

__all__ = ["main", "build_parser"]


# ── Argument plumbing ─────────────────────────────────────────────────────────


def _add_command(subs, name: str, help_text: str, handler) -> argparse.ArgumentParser:
    """A subcommand that runs ``handler(args)`` on one system."""
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(handler=handler)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="P",
                       help="power mean exponent (float, 'inf', '-inf', or '0')")
    group.add_argument("--dsl", metavar="EXPR",
                       help="mean expression, e.g. 'sum(w*x^2)^0.5'")
    return sub


def _add_vector_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--w", metavar="LIST",
                     help="comma-separated weights, e.g. '0.5,0.5'")
    sub.add_argument("--x", metavar="LIST",
                     help="comma-separated values, e.g. '1,7'")
    sub.add_argument("--input", metavar="FILE",
                     help="JSON file with fields 'w' and 'x' (overrides --w/--x)")


def _add_output_args(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default_format)
    sub.add_argument("--output", metavar="FILE", help="write the report here instead of stdout")


def _add_check_args(sub: argparse.ArgumentParser, defaults) -> None:
    """The flags axioms and characterize share, with ``defaults``' values."""
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--trials", type=int, default=defaults.trials)
    sub.add_argument("--max-n", type=int, default=defaults.max_n)
    sub.add_argument("--rel-tol", type=float, default=defaults.rel_tol)
    sub.add_argument("--slack", type=float, default=defaults.slack)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="meanlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = _add_command(subs, "eval", "evaluate a system on one input", _cmd_eval)
    _add_vector_args(p_eval)
    p_eval.add_argument("--format", choices=("json", "csv"), default=None,
                        help="default: print the bare value")
    p_eval.add_argument("--output", metavar="FILE")

    p_ax = _add_command(subs, "axioms", "run the randomized law checks", _cmd_axioms)
    _add_check_args(p_ax, CheckConfig)
    p_ax.add_argument("--positive-weights", action="store_true",
                      help="only quantify over strictly positive weightings")
    _add_output_args(p_ax, "json")

    p_rec = _add_command(subs, "recover", "identify a black-box exponent", _cmd_recover)
    p_rec.add_argument("--samples", type=int, default=_SAMPLE_COUNT)
    _add_output_args(p_rec, "json")

    p_ch = _add_command(subs, "characterize", "recover and stress-test an exponent",
                        _cmd_characterize)
    _add_check_args(p_ch, CharacterizationConfig)
    p_ch.add_argument("--samples", type=int, default=CharacterizationConfig.sample_count)
    p_ch.add_argument("--delta", metavar="LIST",
                      default=",".join(map(repr, CharacterizationConfig.deltas)),
                      help="comma-separated sandwich spacings")
    p_ch.add_argument("--max-denominator", type=int,
                      default=CharacterizationConfig.weight_denominator_max,
                      help="largest denominator for random rational weightings")
    _add_output_args(p_ch, "json")

    p_sw = _add_command(subs, "sandwich", "bracket a value between rational weightings",
                        _cmd_sandwich)
    _add_vector_args(p_sw)
    p_sw.add_argument("--delta", type=float, required=True)
    p_sw.add_argument("--max-denominator", type=int, default=_GRID_CAP)
    _add_output_args(p_sw, "json")

    return parser


def _build_system(args: argparse.Namespace, positive: bool = False) -> MeanSystem:
    if args.builtin is not None:
        text = args.builtin
        if text.startswith("p="):
            text = text[2:]
        try:
            p = Exponent.parse(text)
        except ValueError as exc:
            raise ValueError(f"bad --builtin value: {exc}") from exc
        return builtin_power_mean_system(p, positivity_only=positive)
    try:
        return dsl_mean_system(args.dsl, positivity_only=positive)
    except ExprSyntaxError as exc:
        raise ValueError(f"bad --dsl expression: {exc}") from exc


def _parse_float_list(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"bad {flag} list {text!r}: {exc}") from exc


def _load_vectors(args: argparse.Namespace) -> tuple[Weighting, ValueVector]:
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            w_raw = np.array(data["w"], dtype=np.float64)
            x_raw = np.array(data["x"], dtype=np.float64)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"cannot read --input {args.input!r}: {exc}") from exc
    else:
        if args.w is None or args.x is None:
            raise ValueError("provide --w and --x, or --input FILE")
        w_raw = _parse_float_list(args.w, "--w")
        x_raw = _parse_float_list(args.x, "--x")
    w, x = Weighting(w_raw), ValueVector(x_raw)
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    return w, x


def _check_settings(args: argparse.Namespace, defaults) -> dict:
    """The values of the flags ``_add_check_args`` adds, by config field; the
    seed falls back to ``MEANLAB_SEED``, then to ``defaults.seed``."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get("MEANLAB_SEED")
        try:
            seed = defaults.seed if raw is None else int(raw)
        except ValueError as exc:
            raise ValueError(f"MEANLAB_SEED must be an integer, got {raw!r}") from exc
    return {"seed": seed, "trials": args.trials, "max_n": args.max_n,
            "rel_tol": args.rel_tol, "slack": args.slack}


# ── Output ────────────────────────────────────────────────────────────────────


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (dict, list, tuple)):
        return deterministic_json(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_rows(payload: dict) -> list[tuple[str, str, str]]:
    """Flatten one level: list-of-dict fields become their own records."""
    rows: list[tuple[str, str, str]] = []
    nested: list[tuple[str, dict]] = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for item in value:
                label = item.get("property_name") or item.get("name")
                record = f"{key}:{label}" if label else key
                nested.append((record, item))
        else:
            rows.append(("report", key, _csv_cell(value)))
    for record, item in nested:
        for key in sorted(item):
            rows.append((record, key, _csv_cell(item[key])))
    return rows


def _write(args: argparse.Namespace, text: str) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --output {args.output!r}: {exc}") from exc


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("record", "field", "value"))
        writer.writerows(_csv_rows(payload))
        text = buf.getvalue()
    else:
        text = deterministic_json(payload) + "\n"
    _write(args, text)


def _fail(message: str) -> None:
    sys.stderr.write(f"meanlab: {message}\n")


# ── Subcommand handlers ───────────────────────────────────────────────────────


def _cmd_eval(args: argparse.Namespace) -> int:
    system = _build_system(args)
    w, x = _load_vectors(args)
    value = system(w, x)
    if args.format is None:
        _write(args, repr(value) + "\n")
        return 0
    _emit(args, {"system": system.label, "value": value,
                 "w": w.entries.tolist(), "x": x.entries.tolist()})
    return 0


def _cmd_axioms(args: argparse.Namespace) -> int:
    system = _build_system(args, positive=args.positive_weights)
    cfg = CheckConfig(**_check_settings(args, CheckConfig))
    reports = run_full_suite(system, cfg)
    _emit(args, suite_to_dict(system, cfg, reports))
    return 0 if suite_passed(reports) else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    system = _build_system(args)
    _check_sample_count(args.samples)  # before the probes, whose ValueError is exit 1
    try:
        result = recover_exponent(system, args.samples)
    except ValueError as exc:  # probes no single exponent explains
        _fail(f"recovery failed: {exc}")
        return 1
    payload = {"system": system.label, **recovery_to_dict(result)}
    _emit(args, payload)
    return 0 if result.exponent is not None else 1


def _cmd_characterize(args: argparse.Namespace) -> int:
    system = _build_system(args)
    deltas = tuple(float(v) for v in _parse_float_list(args.delta, "--delta"))
    cfg = CharacterizationConfig(**_check_settings(args, CharacterizationConfig),
                                 deltas=deltas, weight_denominator_max=args.max_denominator,
                                 sample_count=args.samples)
    report = verify_characterization(system, cfg)
    payload = {"system": system.label, **characterization_to_dict(report)}
    _emit(args, payload)
    return 0 if report.passed else 1


def _cmd_sandwich(args: argparse.Namespace) -> int:
    system = _build_system(args)
    w, x = _load_vectors(args)
    result = rational_sandwich(system, w, x, args.delta,
                               max_denominator=args.max_denominator)
    payload = {"system": system.label, **sandwich_to_dict(result)}
    _emit(args, payload)
    return 0 if result.ordered else 1


def main(argv=None) -> int:
    # argparse reads a value that starts with '-' as an option unless it looks
    # like a plain negative number, so ``--builtin -inf`` is passed as
    # ``--builtin=-inf``.
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        flag, value = argv[i:i + 2]
        if flag in ("--builtin", "--dsl") and value[:1] == "-" and value[:2] != "--":
            argv[i:i + 2] = [f"{flag}={value}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SystemEvalError as exc:
        _fail(f"evaluation failed: {exc}")
        return 1
    except ValueError as exc:  # inside meanlab, always an invalid input
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: single computations, theta sweeps, measurement
landscapes, and randomized self-verification.

Ensemble input is a small JSON document, accepted inline or as a file path:

    {"weights": [0.5, 0.5], "bloch": [[0, 0, 0.5], [0, 0, -0.5]]}
    {"pure_pair": {"theta": 0.7853981633974483, "lambda0": 0.5}}

Output is locale-independent: 12 significant digits, '.' decimal point,
LF line endings.  Identical invocations with identical seeds are
byte-identical.

Exit codes: 0 success, 1 usage/parse error, 2 invariant failure,
3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .discord import _holevo_gap, accessible_information, discord_pure_koashi_winter
from .ensemble import (
    QubitEnsemble,
    _EnsembleArrays,
    cq_state_entropy,
    holevo_chi,
    quantum_mutual_information,
    random_ensemble,
    random_pure_pair,
    _sphere_point,
)
from .geodiscord import geometric_discord, quadratic_form
from .measurement import classical_mutual_information
from .oracle import _brute_force_batch
from .qstate import _is_pure, binary_entropy, pure_overlap, von_neumann_entropy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_INTERNAL = 3

SWEEP_COLUMNS = (
    "theta",
    "discord",
    "discord_closed_form",
    "geo_discord",
    "geo_closed_form",
    "chi",
    "i_acc",
    "n_opt_x",
    "n_opt_y",
    "n_opt_z",
    "geo_n_opt_x",
    "geo_n_opt_y",
    "geo_n_opt_z",
)

LANDSCAPE_COLUMNS = ("theta", "delta", "discord_rough")

# Upper bounds on the size arguments, so that a mistyped value is refused
# instead of starting an unbounded allocation or run.
_MAX_GRID = 10**6
_MAX_TRIALS = 10**5
# Sweep rows and verify trials go through the batched optimizers this many
# at a time, so memory does not grow with --steps or --trials.
_BLOCK = 512


class EnsembleSpecError(ValueError):
    """Malformed ensemble spec document (structure or field level)."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_number_values(argv: list[str]) -> list[str]:
    # argparse reads a separate value that starts with "-" but is not a plain
    # decimal, such as -1e-3 or -inf, as an option.  No option parses as a
    # number, so such a token is joined to the option before it by "=".
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:  # normalize -0.0
        v = 0.0
    return format(v, ".12g")


# ---------------------------------------------------------------------------
# Ensemble spec documents
# ---------------------------------------------------------------------------

def ensemble_from_document(doc) -> QubitEnsemble:
    """Build an ensemble from a parsed spec document.

    Structural problems raise EnsembleSpecError; value-level invariant
    violations surface as plain ValueError from the ensemble itself.
    """
    if not isinstance(doc, dict):
        raise EnsembleSpecError("spec must be a JSON object")
    has_bloch = "bloch" in doc
    has_pure = "pure_pair" in doc
    if has_bloch == has_pure:
        raise EnsembleSpecError("exactly one of 'bloch' or 'pure_pair' must be present")
    extra = set(doc) - ({"pure_pair"} if has_pure else {"bloch", "weights"})
    if extra:
        raise EnsembleSpecError(f"unknown spec fields: {sorted(extra)}")
    if has_pure:
        pp = doc["pure_pair"]
        if not isinstance(pp, dict) or "theta" not in pp:
            raise EnsembleSpecError("'pure_pair' must be an object with a 'theta' field")
        extra = set(pp) - {"theta", "lambda0"}
        if extra:
            raise EnsembleSpecError(f"unknown 'pure_pair' fields: {sorted(extra)}")
        return QubitEnsemble.pure_pair(
            _number(pp["theta"], "pure_pair.theta"),
            _number(pp.get("lambda0", 0.5), "pure_pair.lambda0"),
        )
    if "weights" not in doc:
        raise EnsembleSpecError("'bloch' form requires a 'weights' field")
    weights = doc["weights"]
    bloch = doc["bloch"]
    if not isinstance(weights, (list, tuple)) or len(weights) != 2:
        raise EnsembleSpecError("'weights' must be a list of two probabilities")
    if (
        not isinstance(bloch, (list, tuple))
        or len(bloch) != 2
        or any(not isinstance(v, (list, tuple)) or len(v) != 3 for v in bloch)
    ):
        raise EnsembleSpecError("'bloch' must be a list of two 3-vectors")
    l0 = _number(weights[0], "weights[0]")
    l1 = _number(weights[1], "weights[1]")
    a = [_number(x, "bloch[0]") for x in bloch[0]]
    b = [_number(x, "bloch[1]") for x in bloch[1]]
    return QubitEnsemble(l0, l1, a, b)


def _number(x, field: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise EnsembleSpecError(f"field '{field}' must be a number, got {x!r}")
    return float(x)


def _unique_fields(pairs) -> dict:
    """The object of a spec document, refusing a field that appears twice.

    json.loads would keep the last value of a repeated field without a word.
    """
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise EnsembleSpecError(f"duplicate spec field: {key!r}")
        doc[key] = value
    return doc


def parse_ensemble_spec(text: str) -> QubitEnsemble:
    """Parse an inline JSON spec string."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise EnsembleSpecError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return ensemble_from_document(doc)


def load_ensemble_spec(arg: str) -> QubitEnsemble:
    """Accept a spec as a file path or as inline JSON."""
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            # A ValueError, which main would report as an invariant violation.
            raise EnsembleSpecError(
                f"spec file is not UTF-8: {arg}: {exc.reason} at byte {exc.start}"
            ) from None
        return parse_ensemble_spec(text)
    if os.path.exists(arg):
        # A directory, say: opening it would be an i/o error, an internal failure.
        raise EnsembleSpecError(f"spec path is not a regular file: {arg}")
    if arg.lstrip().startswith("{"):
        return parse_ensemble_spec(arg)
    raise EnsembleSpecError(f"spec file not found: {arg}")


def ensemble_to_document(ens: QubitEnsemble) -> dict:
    """Replayable spec document for an ensemble."""
    return {
        "weights": [ens.lambda0, ens.lambda1],
        "bloch": [list(map(float, ens.a)), list(map(float, ens.b))],
    }


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute_lines(ens: QubitEnsemble, verify_grid: int | None) -> list[str]:
    chi, acc = holevo_chi(ens), accessible_information(ens)
    gap = _holevo_gap(chi, acc.value)
    geo = geometric_discord(ens)
    pairs = [
        ("lambda0", ens.lambda0),
        ("lambda1", ens.lambda1),
        ("a_x", ens.a[0]),
        ("a_y", ens.a[1]),
        ("a_z", ens.a[2]),
        ("b_x", ens.b[0]),
        ("b_y", ens.b[1]),
        ("b_z", ens.b[2]),
        ("chi", chi),
        ("i_acc", acc.value),
        ("discord", gap),
        ("n_opt_x", acc.n_opt[0]),
        ("n_opt_y", acc.n_opt[1]),
        ("n_opt_z", acc.n_opt[2]),
        ("stationarity_residual", acc.stationarity_residual),
        ("geo_discord", geo.value),
        ("geo_n_opt_x", geo.n_opt[0]),
        ("geo_n_opt_y", geo.n_opt[1]),
        ("geo_n_opt_z", geo.n_opt[2]),
        ("geo_stationarity_residual", geo.stationarity_residual),
    ]
    if _is_pure(ens.a) and _is_pure(ens.b):
        kw = discord_pure_koashi_winter(ens.lambda0, pure_overlap(ens.a, ens.b))
        pairs += [
            ("kw_concurrence", kw.concurrence),
            ("kw_eof", kw.eof),
            ("kw_s_b", kw.s_b),
            ("kw_s_ab", kw.s_ab),
            ("kw_discord", kw.discord),
        ]
    if verify_grid is not None:
        oracle = _brute_force_batch(_EnsembleArrays.of([ens, ens]), [False, True], verify_grid).value
        pairs += [
            ("oracle_grid", float(verify_grid)),
            ("oracle_i_acc", oracle[0]),
            ("oracle_discord", chi - oracle[0]),
            ("oracle_geo_discord", oracle[1]),
        ]
    lines = [f"{key} = {_fmt(val)}" for key, val in pairs]
    lines.insert(0, f"degenerate_optimum = {'true' if acc.degenerate else 'false'}")
    return lines


def _cmd_compute(args) -> int:
    if (args.spec is None) == (args.theta is None):
        raise _UsageError("provide exactly one of --spec or --theta")
    if args.spec is not None and (args.lambda0 is not None or args.degrees):
        raise _UsageError("--lambda0 and --degrees go with --theta, not with --spec")
    if args.verify is not None:
        _check_range("--verify", args.verify, 2, _MAX_GRID)
    if args.spec is not None:
        ens = load_ensemble_spec(args.spec)
    else:
        theta = _angle(args.theta, args.degrees)
        ens = QubitEnsemble.pure_pair(theta, 0.5 if args.lambda0 is None else args.lambda0)
    lines = _compute_lines(ens, args.verify)
    _write_lines(args.output, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _pure_pair_geo_closed_form(lambda0: float, theta: float) -> float:
    # smaller eigenvalue of the in-plane 2x2 quadratic form, halved
    t = lambda0**2 + (1.0 - lambda0) ** 2
    s = 2.0 * lambda0 * (1.0 - lambda0) * math.sin(2.0 * theta)
    return 0.25 * (t - math.sqrt(max(t * t - s * s, 0.0)))


def _sweep_rows(thetas: list[float], lambda0: float) -> list[tuple]:
    rows = _EnsembleArrays.pure_pairs(thetas, lambda0)
    chi, acc = holevo_chi(rows), accessible_information(rows)
    gap = _holevo_gap(chi, acc.value)
    # math.cos per row: numpy's SIMD loop may move a last bit.
    kw = discord_pure_koashi_winter(lambda0, np.array([abs(math.cos(theta)) for theta in thetas]))
    geo = geometric_discord(rows)
    geo_closed = [_pure_pair_geo_closed_form(lambda0, theta) for theta in thetas]
    columns = (gap, kw.discord, geo.value, geo_closed, chi, acc.value, *acc.n_opt.T, *geo.n_opt.T)
    return list(zip(thetas, *(np.asarray(c).tolist() for c in columns)))


def _cmd_sweep(args) -> int:
    _check_range("--steps", args.steps, 2, 10**6)
    start = _angle(args.start, args.degrees)
    stop = _angle(args.stop, args.degrees)
    # Blocks are written as done, so check the end rows before opening the
    # output, and before np.linspace, which warns on an infinite end.
    for theta in (start, stop):
        QubitEnsemble.pure_pair(theta, args.lambda0)
    thetas = np.linspace(start, stop, args.steps)
    with _open_output(args.output) as out:
        out.write(",".join(SWEEP_COLUMNS) + "\n")
        for k in range(0, args.steps, _BLOCK):
            rows = _sweep_rows(thetas[k : k + _BLOCK].tolist(), args.lambda0)
            out.write("".join(",".join(_fmt(x) for x in row) + "\n" for row in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def _cmd_landscape(args) -> int:
    _check_range("--delta-steps", args.delta_steps, 2, 10**6)
    theta = _angle(args.theta, args.degrees)
    d0 = _angle(args.delta_start, args.degrees)
    d1 = _angle(args.delta_stop, args.degrees)
    for flag, delta in (("--delta-start", d0), ("--delta-stop", d1)):
        if not math.isfinite(delta):
            raise ValueError(f"{flag} must be finite, got {delta!r}")
    ens = QubitEnsemble.pure_pair(theta, args.lambda0)
    chi = holevo_chi(ens)
    deltas = np.linspace(d0, d1, args.delta_steps)
    axes = np.stack(
        [np.cos(deltas), np.zeros_like(deltas), np.sin(deltas)], axis=1
    )
    rough = chi - classical_mutual_information(ens, axes)
    lines = [",".join(LANDSCAPE_COLUMNS)]
    lines += [
        ",".join((_fmt(theta), _fmt(d), _fmt(v))) for d, v in zip(deltas, rough)
    ]
    _write_lines(args.output, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: list[tuple[int, float, dict]] = []

    def check(self, trial: int, residual: float, tol: float, ens: QubitEnsemble):
        self.worst = max(self.worst, residual)
        if residual <= tol:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append((trial, residual, ensemble_to_document(ens)))

    def summary(self) -> str:
        total = self.passed + self.failed
        return (
            f"suite {self.name}: {self.passed}/{total} pass, "
            f"worst residual {self.worst:.3e}"
        )


def _cmd_verify(args) -> int:
    _check_range("--trials", args.trials, 1, _MAX_TRIALS)
    _check_range("--grid", args.grid, 2, _MAX_GRID)
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")

    def tol(default: float) -> float:
        return args.tol if args.tol is not None else default

    rng = np.random.default_rng(args.seed)
    suites = {
        name: _Suite(name)
        for name in (
            "entropy_identities",
            "holevo_bound",
            "complementarity",
            "stationarity",
            "oracle_agreement",
            "oracle_bound",
            "koashi_winter",
            "geometric",
        )
    }
    for first in range(0, args.trials, _BLOCK):
        trials = range(first, min(first + _BLOCK, args.trials))
        # The rng order of the per-trial loop: ens, axis, pure, trial by trial.
        draws = [(random_ensemble(rng), _sphere_point(rng), random_pure_pair(rng)) for _ in trials]
        ensembles = [ens for ens, _, _ in draws]
        # One block for the ensembles and the pure pairs, so one polish.
        rows = _EnsembleArrays.of(ensembles + [pure for _, _, pure in draws])
        chi, acc = holevo_chi(rows), accessible_information(rows)
        columns = (chi, acc.value, _holevo_gap(chi, acc.value), acc.stationarity_residual, acc.degenerate)
        results = list(zip(*(c.tolist() for c in columns)))
        purity = np.repeat([False, True], len(draws))
        oracles = _brute_force_batch(_EnsembleArrays.of(ensembles * 2), purity, args.grid).value.tolist()
        for j, trial in enumerate(trials):
            ens, axis, pure = draws[j]
            chi, i_acc, discord, residual, degenerate = results[j]
            d_pure = results[len(draws) + j][2]
            oracle_i_acc, oracle_geo = oracles[j], oracles[len(draws) + j]

            s_joint = cq_state_entropy(ens)
            s_formula = (
                binary_entropy(ens.lambda0)
                + ens.lambda0 * von_neumann_entropy(ens.a)
                + ens.lambda1 * von_neumann_entropy(ens.b)
            )
            two_route = max(
                abs(s_joint - s_formula), abs(chi - quantum_mutual_information(ens))
            )
            suites["entropy_identities"].check(trial, two_route, tol(1e-12), ens)

            margin = classical_mutual_information(ens, axis) - chi
            suites["holevo_bound"].check(trial, margin, tol(1e-12), ens)

            comp = max(abs(chi - i_acc - discord), i_acc - chi)
            suites["complementarity"].check(trial, comp, tol(1e-10), ens)

            if not degenerate:
                suites["stationarity"].check(trial, residual, tol(1e-6), ens)

            geo = geometric_discord(ens)
            agreement = max(abs(i_acc - oracle_i_acc), abs(geo.value - oracle_geo))
            suites["oracle_agreement"].check(trial, agreement, tol(1e-5), ens)
            # the grid can lag a true optimum but must never beat it
            beat = max(oracle_i_acc - i_acc, geo.value - oracle_geo, 0.0)
            suites["oracle_bound"].check(trial, beat, tol(1e-6), ens)

            kw = discord_pure_koashi_winter(pure.lambda0, pure_overlap(pure.a, pure.b))
            suites["koashi_winter"].check(trial, abs(d_pure - kw.discord), tol(1e-6), pure)

            form = quadratic_form(ens)
            eig_res = float(
                np.linalg.norm(form.m @ form.top_eigenvector - form.top_eigenvalue * form.top_eigenvector)
            )
            geo_res = max(eig_res, geo.stationarity_residual)
            suites["geometric"].check(trial, geo_res, tol(1e-8), ens)

    lines = [
        f"seed = {args.seed}",
        f"trials = {args.trials}",
        f"grid = {args.grid}",
    ]
    failed = 0
    for suite in suites.values():
        lines.append(suite.summary())
        failed += suite.failed
    for suite in suites.values():
        for trial, residual, doc in suite.failures:
            lines.append(
                f"FAIL {suite.name} trial={trial} residual={residual:.6e} "
                f"spec={json.dumps(doc)}"
            )
    lines.append(f"result = {'PASS' if failed == 0 else 'FAIL'}")
    _write_lines(args.output, lines)
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise _UsageError(f"{flag} must lie in [{lo}, {hi}]")


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else float(value)


def _open_output(output: str | None):
    if output is None or output == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(output, "w", encoding="ascii", newline="")


def _write_lines(output: str | None, lines: list[str]) -> None:
    with _open_output(output) as out:
        out.write("\n".join(lines) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves it as it was, and returns a
    # fresh namespace each time.
    parser = _Parser(
        prog="qdiscord",
        description="Quantumness of two-state qubit ensembles: Holevo bound, "
        "accessible information, quantum and geometric discord.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="all measures for one ensemble")
    p.add_argument("--spec", help="ensemble spec: file path or inline JSON")
    p.add_argument("--theta", type=float, help="pure-pair shorthand: half-angle")
    p.add_argument("--lambda0", type=float, help="pure-pair shorthand: weight (default 0.5)")
    p.add_argument("--verify", type=int, metavar="N", help="add brute-force oracle values at grid size N")
    p.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("sweep", help="theta sweep of the pure-pair family (CSV)")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=math.pi / 2.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lambda0", type=float, default=0.5)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("landscape", help="unoptimized discord vs measurement angle (CSV)")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--lambda0", type=float, default=0.5)
    p.add_argument("--delta-steps", type=int, default=73)
    p.add_argument("--delta-start", type=float, default=0.0)
    p.add_argument("--delta-stop", type=float, default=2.0 * math.pi)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("verify", help="randomized invariant suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=None, help="override every suite tolerance")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _attach_number_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnsembleSpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

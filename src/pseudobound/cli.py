"""Command-line front end.

Subcommands: state | ppt | witness (eval|optimize) | prepare |
tomo (simulate|reconstruct) | metrics | report | verify.

Matrices travel as JSON objects {"dim": 8, "re": [[...]], "im": [[...]]};
datasets as JSON arrays of measurement records.  Exit codes: 0 all good,
1 entanglement not detected, 2 invariant violation or bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import core, nmr, states, tomography, witnesses
from .pipeline import RunConfig, build_report  # re-exported as cli.*

EXIT_OK = 0
EXIT_NOT_DETECTED = 1
EXIT_INVARIANT = 2


def _write_text(text: str, path: str | None) -> None:
    if path:
        core.write_text(text, path)
    else:
        sys.stdout.write(text)


def _write_json(payload, path: str | None) -> None:
    if path:
        core.write_json(payload, path)
    else:
        sys.stdout.write(core.json_text(payload))


def _load_density(path: str) -> core.DensityOperator:
    return core.load_json(
        path, lambda blob: core.DensityOperator.loose(core.matrix_from_json(blob)))


def _params_from_args(args) -> states.StateParams:
    if args.a1 is not None or args.a2 is not None or args.a3 is not None:
        if args.a is not None:
            raise ValueError("give either --a or --a1/--a2/--a3, not both")
        missing = [n for n, v in (("--a1", args.a1), ("--a2", args.a2), ("--a3", args.a3))
                   if v is None]
        if missing:
            raise ValueError(f"give all of --a1/--a2/--a3 (missing {missing})")
        return states.StateParams(args.a1, args.a2, args.a3)
    return states.StateParams.symmetric(states.A_OPT if args.a is None else args.a)


# ---------------------------------------------------------------------------
# subcommands


def cmd_state(args) -> int:
    params = _params_from_args(args)
    rho = states.bound_entangled_state(params)
    if args.p is not None:
        rho = states.pseudo_state(rho, args.p)
    payload = core.matrix_to_json(rho.matrix)
    payload["meta"] = {
        "a1": params.a1, "a2": params.a2, "a3": params.a3,
        "entangled_regime": params.entangled_regime,
        "pseudo_fraction": args.p,
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_ppt(args) -> int:
    rho = _load_density(args.state)
    report = core.is_ppt(rho, tolerance=args.tolerance)
    _write_json({"tolerance": report.tolerance, **report.as_dict()}, args.out)
    return EXIT_OK if report.all_ppt else EXIT_NOT_DETECTED


def cmd_witness_eval(args) -> int:
    params = witnesses.WitnessParams(_params_from_args(args), args.eps)
    w = witnesses.witness(params)
    rho = _load_density(args.state)
    value = witnesses.expectation(w, rho)
    lo, hi = witnesses.witness_spectrum_extremes(params)
    _write_json({
        "expectation": value,
        "detected": value < 0,
        "witness_trace": float(np.real(np.trace(w))),
        "spectrum": {"min": lo, "max": hi},
    }, args.out)
    return EXIT_OK if value < 0 else EXIT_NOT_DETECTED


def cmd_witness_optimize(args) -> int:
    lo, _, hi = args.range.partition(":")
    try:
        search_range = (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"--range must be LO:HI, got {args.range!r}") from None
    if args.restarts < 1:
        raise ValueError(f"--restarts {args.restarts} must be at least 1")
    if args.restarts > witnesses.MAX_RESTARTS:
        raise ValueError(f"--restarts {args.restarts} must be at most {witnesses.MAX_RESTARTS}")
    report = witnesses.optimize_parameters(
        search_range=search_range, restarts=args.restarts, seed=args.seed)
    _write_json(report.as_dict(), args.out)
    return EXIT_OK


def cmd_prepare(args) -> int:
    kappa = args.kappa
    p = nmr.matched_fraction(args.a, kappa) if args.p is None else args.p
    seed = nmr.target_diagonal(args.a, p)
    five = nmr.initial_states(kappa, a=args.a)
    sol = nmr.solve_temporal_weights(five, seed)
    ps = nmr.prepare_pseudo_state(seed)
    payload = {
        "pseudo_state": core.matrix_to_json(ps.matrix),
        "p": p,
        "kappa": kappa,
        "diagonal_seed": {
            "populations": np.real(np.diag(seed.state.matrix)).tolist(),
            "single_spin": list(seed.single_spin),
            "two_spin": list(seed.two_spin),
            "three_spin": seed.three_spin,
        },
        "temporal_weights": {
            "weights": sol.weights.tolist(),
            "residual": sol.residual,
            "achieved_p": sol.achieved_p,
        },
        "preparation_unitary": core.matrix_to_json(nmr.preparation_unitary()),
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_tomo_simulate(args) -> int:
    rho = _load_density(args.state)
    dataset = tomography.generate_dataset(rho, sigma=args.sigma, seed=args.seed)
    _write_text(dataset.json_text(), args.out)
    return EXIT_OK


def cmd_tomo_reconstruct(args) -> int:
    # the fit's refusals of a file that loaded name the file too
    result = core.load_json(args.data, lambda blob: tomography.reconstruct(
        tomography.TomographyDataset.from_json(blob)))
    rho = result.rho_hat
    if args.project:
        rho = tomography.project_to_physical(rho)
    payload = core.matrix_to_json(rho.matrix)
    payload["meta"] = {
        "residual_norm": result.residual_norm,
        "projected": bool(args.project),
        "min_eigenvalue": float(result.rho_hat.eigenvalues()[0]),
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_metrics(args) -> int:
    rho = _load_density(args.state)
    ref = _load_density(args.reference)
    _write_json({
        "uhlmann_fidelity": core.uhlmann_fidelity(ref, rho),
        "trace_distance": core.trace_distance(ref, rho),
    }, args.out)
    return EXIT_OK


def _report_summary(rep: dict) -> str:
    w = rep["witness"]
    m = rep["metrics"]
    cuts = rep["ppt"]["cuts"]
    lines = [
        "pseudo bound entanglement report",
        f"  PPT cuts: " + ", ".join(
            f"{label} min_eig={c['min_eigenvalue']:+.4f} {'PPT' if c['ppt'] else 'NPT'}"
            for label, c in cuts.items()),
        f"  <W> = {w['expectation']:+.4f} +/- {w['sigma']:.4f}"
        f"  (ideal {w['ideal_expectation']:+.4f}, modeled {w['modeled_expectation']:+.4f})",
        f"  Uhlmann fidelity to ideal = {m['uhlmann_fidelity']:.4f}",
        f"  trace distance to ideal  = {m['trace_distance']:.4f}",
        f"  entangled: {'yes' if rep['entangled'] else 'NO'}",
    ]
    return "\n".join(lines)


def cmd_report(args) -> int:
    rep = build_report(RunConfig(a=args.a, epsilon=args.eps, p=args.p, sigma=args.sigma,
                                 noise_lambda=args.noise_lambda, seed=args.seed))
    print(_report_summary(rep))
    if args.out:
        _write_json(rep, args.out)
    return EXIT_OK if rep["entangled"] else EXIT_NOT_DETECTED


# ---------------------------------------------------------------------------
# verify: the invariant suite


def cmd_verify(args) -> int:
    # imported here, so that no other subcommand's process loads the registry
    from . import checks

    failures = 0
    for name, check in checks.CHECKS:
        try:
            ok, detail = True, check(checks.entry_rng(name, args.seed))
        except checks.CheckFailed as exc:
            ok, detail = False, str(exc)
        except Exception as exc:   # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(f"{len(checks.CHECKS) - failures}/{len(checks.CHECKS)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def _add_params(parser, with_eps=False):
    parser.add_argument("--a", type=float, default=None,
                        help="symmetric family parameter")
    parser.add_argument("--a1", type=float, default=None)
    parser.add_argument("--a2", type=float, default=None)
    parser.add_argument("--a3", type=float, default=None)
    if with_eps:
        parser.add_argument("--eps", type=float, default=witnesses.EPS_OPT)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Every ``main`` call in the process parses with this one parser, so do
    not mutate it: an added argument or default would reach every later call.
    It binds each subcommand to its ``cmd_*`` function when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="pseudobound",
        description="pseudo bound entanglement toolkit (three-qubit register)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="emit a family state (optionally embedded)")
    _add_params(p)
    p.add_argument("--p", type=float, default=None, help="pseudo-state fraction")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("ppt", help="PPT verdict for every bipartite cut")
    p.add_argument("--state", required=True)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("witness", help="witness evaluation and optimization")
    wsub = p.add_subparsers(dest="witness_command", required=True)
    pe = wsub.add_parser("eval", help="evaluate <W> on a state")
    _add_params(pe, with_eps=True)
    pe.add_argument("--state", required=True)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_witness_eval)
    po = wsub.add_parser("optimize", help="optimize the symmetric parameter")
    po.add_argument("--range", default="0.05:1.0")
    po.add_argument("--restarts", type=int, default=250)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out", default=None)
    po.set_defaults(func=cmd_witness_optimize)

    p = sub.add_parser("prepare", help="temporal averaging + gate sequence")
    p.add_argument("--a", type=float, default=states.A_OPT)
    p.add_argument("--p", type=float, default=None,
                   help="pseudo fraction (default: exactly synthesizable)")
    p.add_argument("--kappa", type=float, default=nmr.DEFAULT_KAPPA_H)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("tomo", help="simulate or invert readout data")
    tsub = p.add_subparsers(dest="tomo_command", required=True)
    ts = tsub.add_parser("simulate")
    ts.add_argument("--state", required=True)
    ts.add_argument("--sigma", type=float, default=1e-3)
    ts.add_argument("--seed", type=int, default=7)
    ts.add_argument("--out", default=None)
    ts.set_defaults(func=cmd_tomo_simulate)
    tr = tsub.add_parser("reconstruct")
    tr.add_argument("--data", required=True)
    tr.add_argument("--project", action="store_true",
                    help="project onto physical states afterwards")
    tr.add_argument("--out", default=None)
    tr.set_defaults(func=cmd_tomo_reconstruct)

    p = sub.add_parser("metrics", help="fidelity and trace distance")
    p.add_argument("--state", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("report", help="full pipeline with certification summary")
    defaults = RunConfig()
    p.add_argument("--a", type=float, default=defaults.a)
    p.add_argument("--eps", type=float, default=defaults.epsilon)
    p.add_argument("--p", type=float, default=defaults.p)
    p.add_argument("--sigma", type=float, default=defaults.sigma,
                   help="measurement noise relative to the deviation scale")
    p.add_argument("--noise-lambda", type=float, default=defaults.noise_lambda,
                   help="depolarization applied to the embedded state")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # checked here, so that even a command that would not use it refuses it
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed {args.seed} must be a non-negative integer")
        return args.func(args)
    except (ValueError, OSError) as exc:   # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: mswf <subcommand> [flags].

Subcommands: packet, wpt, iwpt, flow, evolve, detect, experiment.
Exit codes: 0 success, 2 guard violation, 3 numeric failure,
4 consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import detector, experiments, grid, packets, potentials, propagator
from .errors import InputError, MswfError, load_json

# the keys `mswf detect` reads from flags of the same name
_SCAN_KEYS = {f.name for f in fields(experiments.ScanConfig)}


def _parse_grid(text: str) -> grid.GridSpec:
    try:
        n, points, halfwidth = text.split(",")
        return grid.GridSpec(n, points, halfwidth)
    except ValueError:
        raise InputError(f"grid must be 'n,points,halfwidth', got '{text}'") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_packet(args) -> int:
    spec = _parse_grid(args.grid)
    packet = packets.make_scaled_packet(spec, args.width, args.lam, args.b)
    if args.t != 0.0:
        packet = packets.free_evolve_packet(packet, args.t)
    if args.out:
        grid.save_wfgf(packet, args.out)
    if args.csv:
        grid.gridfunction_to_csv(packet, args.csv)
    print(f"packet: lam={args.lam} b={args.b} t={args.t} "
          f"l2={packet.l2_norm()!r}")
    return 0


def _cmd_wpt(args) -> int:
    if (args.x is None) != (args.xi is None):
        raise InputError("a pointwise transform needs both --x and --xi")
    if args.x is None and not args.table_out:
        raise InputError("full-lattice transform needs --table-out <npz>")
    f = grid.load_wfgf(args.infile)
    window = packets.GaussianWindow(f.spec.n, args.width, args.lam, args.b, args.t)
    if args.x is not None:
        value = packets.wpt(f, window, (args.x.split(","), args.xi.split(",")))
        print(f"wpt: re={value.real!r} im={value.imag!r} abs={abs(value)!r}")
        return 0
    table = packets.wpt_grid(f, window)
    payload = {"values": table.values,
               "grid_points": np.array(f.spec.points),
               "grid_halfwidths": np.array(f.spec.halfwidths)}
    for i in range(f.spec.n):
        payload[f"x_axis_{i}"] = np.asarray(table.x_axes[i])
        payload[f"xi_axis_{i}"] = np.asarray(table.xi_axes[i])
    np.savez(args.table_out, **payload)
    print(f"wpt table: shape={table.values.shape} -> {args.table_out}")
    return 0


def _cmd_iwpt(args) -> int:
    try:
        data = np.load(args.table)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read table {args.table!r}: {exc}") from None

    def array(name):
        if name not in getattr(data, "files", ()):  # a bare .npy has none
            raise InputError(f"table {args.table!r} has no array {name!r}")
        return data[name]

    points = tuple(int(m) for m in array("grid_points"))
    halfwidths = tuple(float(w) for w in array("grid_halfwidths"))
    spec = grid.GridSpec(len(points), points, halfwidths)
    n = spec.n
    table = packets.WptTable(
        spec,
        tuple(array(f"x_axis_{i}") for i in range(n)),
        tuple(array(f"xi_axis_{i}") for i in range(n)),
        array("values"))
    window = packets.GaussianWindow(n, args.width, args.lam, args.b, args.t)
    out = packets.inverse_wpt(table, window)
    grid.save_wfgf(out, args.out)
    print(f"iwpt: l2={out.l2_norm()!r} -> {args.out}")
    return 0


def _cmd_flow(args) -> int:
    x0, xi0 = grid.phase_points(args.x.split(","), args.xi.split(","), ndim=(1, 1))
    model = potentials.model_from_json(args.potential, len(x0))
    res = chars.flow(model, args.t0, args.target, x0, xi0, args.tol)
    if args.dump_traj:
        n = model.n
        header = (["s"] + [f"x{i}" for i in range(n)] + [f"xi{i}" for i in range(n)]
                  + ["h", "RePsi", "ImPsi"])
        rows = []
        for st in res.states:
            h = chars.hamiltonian(model, st.s, st.x, st.xi)
            psi = chars.phase_density(model, st.s, st.x, st.xi)
            rows.append([st.s, *st.x, *st.xi, h, psi.real, psi.imag])
        experiments.write_csv(Path(args.dump_traj), header, rows)
    term = res.terminal
    print(f"flow: s={term.s!r} x={list(term.x)} xi={list(term.xi)} "
          f"phase={res.psi_integral!r} steps={res.stats['steps']}")
    return 0


def _cmd_evolve(args) -> int:
    u0 = grid.load_wfgf(args.infile)
    model = potentials.model_from_json(args.potential, u0.spec.n)
    scalar = propagator.scalar_from_json(args.scalar_potential)
    cfg = propagator.EvolveConfig(dt=args.dt)
    probe_rows = []
    probe = None
    if args.probe_l2:
        def probe(t, fld):
            probe_rows.append([t, fld.l2_norm()])
    out = propagator.evolve(model, scalar, u0, args.t0, args.t1, cfg, probe=probe)
    grid.save_wfgf(out, args.out)
    if args.probe_l2:
        experiments.write_csv(Path(args.probe_l2), ["t", "l2"], probe_rows)
    print(f"evolve: t={args.t1!r} l2={out.l2_norm()!r} -> {args.out}")
    return 0


def _cmd_detect(args) -> int:
    f = grid.load_wfgf(args.infile)
    config = experiments.ScanConfig.parse({
        **{k: v for k, v in vars(args).items() if k in _SCAN_KEYS and v is not None},
        "grid": {"n": f.spec.n, "points": f.spec.points, "halfwidth": f.spec.halfwidths},
        "positions": [args.x0.split(",")], "directions": [args.xi0.split(",")]})
    sample = detector.ConicSample(config.positions[0], config.directions[0],
                                  k_radius=config.k_radius,
                                  half_angle=config.cone_angle, a=config.a)
    settings = (sample, config.ladder, config.thresholds, config.width, config.b)
    if args.mode == "static":
        report = detector.wf_test_static(f, *settings)
    else:
        report = detector.wf_test_dynamic(f, config.potential, config.t0, *settings)
    payload = report.to_json_dict()
    if args.out:
        experiments.write_json(Path(args.out), payload)
    if args.csv:
        rows = list(zip(payload["lambda"], payload["mag"]))
        experiments.write_csv(Path(args.csv), ["lambda", "mag"], rows)
    print(f"detect: verdict={report.verdict} Nhat={report.n_hat!r} "
          f"R2={report.r2!r} flags={report.flags}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_json(args.config)
    if args.out_dir:
        cfg["out_dir"] = args.out_dir
    summary = experiments.run_experiment(cfg)
    keys = [k for k in ("agreement", "fraction_not_in_wf") if k in summary]
    note = " ".join(f"{k}={summary[k]!r}" for k in keys)
    print(f"experiment {summary['experiment']}: {note}")
    return 0


def _window_args(p) -> None:
    """--width, --lam, --b and --t, defaulting to GaussianWindow's fields."""
    for name in ("width", "lam", "b", "t"):
        p.add_argument(f"--{name}", type=float,
                       default=getattr(packets.GaussianWindow, name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mswf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("packet", help="sample a scaled (optionally evolved) window")
    p.add_argument("--grid", required=True, help="n,points,halfwidth")
    _window_args(p)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_packet)

    p = sub.add_parser("wpt", help="wave packet transform of a field file")
    p.add_argument("--in", dest="infile", required=True)
    _window_args(p)
    p.add_argument("--x", help="position, comma separated")
    p.add_argument("--xi", help="frequency, comma separated")
    p.add_argument("--table-out", help="npz output for the full lattice")
    p.set_defaults(func=_cmd_wpt)

    p = sub.add_parser("iwpt", help="inverse transform of a saved table")
    p.add_argument("--table", required=True)
    _window_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_iwpt)

    p = sub.add_parser("flow", help="integrate the bicharacteristic flow")
    p.add_argument("--potential")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--dump-traj")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("evolve", help="propagate a field file in time")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--potential")
    p.add_argument("--scalar-potential")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--probe-l2")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("detect", help="wave-front membership test at one cell")
    p.add_argument("--mode", choices=["static", "dynamic"], default="static")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--xi0", required=True)
    # each flag below is the ScanConfig key of its name, as text the config
    # converts; one left out keeps the config's default, except t0
    p.add_argument("--potential")
    p.add_argument("--t0", default=0.0)
    for name in ("cone-angle", "k-radius", "a", "width"):
        p.add_argument(f"--{name}")
    p.add_argument("--ladder", help="kmin:kmax or explicit list")
    p.add_argument("--b", help="a number or auto")
    p.add_argument("--thresholds", help="N=..,Nlow=..,R2=..", type=lambda text: dict(
        item.partition("=")[::2] for item in text.split(",") if item))
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True, help="JSON file or inline JSON")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MswfError as exc:
        print(f"error[{exc.exit_code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``solve`` (run one solver/model combination on instance
files), ``bench`` (sweep demands and tabulate), ``gadget`` (emit a
subset-sum reduction instance as network/route files), and
``export-geojson`` (map display of a solve report).

Reports are single JSON documents with deterministic key order; the wall
time field is the only part allowed to differ between identical runs.
Exit codes: 0 solved, 1 parse/validation failure (usage errors included),
2 no alternative exists (the fallback cost is still reported).  Every error
is one ``error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import isfinite
from pathlib import Path as FilePath

from .network import (AFFINE, NetworkError, Network, Route, format_network,
                      format_route, parse_network, parse_route)
from .oracle import build_gadget, indicator_model
from .psychmodels import ModelError, parse_model
from .solvers import SapInstance, Solution, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ALTERNATIVE = 2


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error: 2 means "no alternative"."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _read_text(path: str, what: str) -> str:
    try:
        return FilePath(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}") from None


def _load_instance(args) -> tuple[Network, Route]:
    if args.threads < 1:
        raise CliError(f"--threads {args.threads} must be >= 1")
    net = parse_network(_read_text(args.network, "network file"))
    route = parse_route(_read_text(args.route, "route file"), net)
    if args.demand is not None:
        if not (isfinite(args.demand) and args.demand > 0):
            raise CliError(f"--demand {args.demand} must be finite and > 0")
        route = Route(route.path, float(args.demand))
    return net, route


def _resolve_model(spec: str, net: Network, route: Route):
    if spec.startswith("indicator:"):
        try:
            w = int(spec.split(":", 1)[1])
        except ValueError:
            raise ModelError(f"bad indicator target in {spec!r}") from None
        q_cost = route.path.cost_fn(net)
        # the original route's cost s*x + s carries the instance total, as
        # build_gadget writes it
        total = q_cost.slope
        if net.mode != AFFINE or q_cost.base != total or not total.is_integer():
            raise ModelError(f"{spec!r} needs an affine network whose route costs "
                             f"s*x + s with s a whole number; this route is "
                             f"{net.mode} with slope {total:g} and base {q_cost.base:g}")
        return indicator_model(w, int(total))
    return parse_model(spec)


def run_report(net: Network, route: Route, variant: str, algorithm: str,
               model, threads: int, network_file: str, route_file: str) -> dict:
    inst = SapInstance(net, route, model, variant, algorithm)
    started = time.perf_counter()
    sol = solve(inst, threads)
    wall = time.perf_counter() - started
    return solution_report(sol, route, variant, algorithm, model.name,
                           network_file, route_file, wall)


def solution_report(sol: Solution, route: Route, variant: str, algorithm: str,
                    model_name: str, network_file: str, route_file: str,
                    wall: float) -> dict:
    d = route.demand
    return {
        "network": network_file,
        "route": route_file,
        "variant": variant,
        "algorithm": algorithm,
        "model": model_name,
        "demand": d,
        "original_path": [str(v) for v in route.path.vertices],
        "path": [str(v) for v in sol.path.vertices],
        "no_alternative": sol.no_alternative,
        "x": sol.x,
        "usage": sol.x / d,
        "cost": sol.cost,
        "cost_per_agent": sol.cost / d,
        "per_agent_alternative": sol.per_agent_alt,
        "per_agent_original": sol.per_agent_orig,
        "baseline_one_sp": sol.baseline_one_sp,
        "baseline_d_sp": sol.baseline_d_sp,
        "cost_all_on_original": sol.cost_all_on_orig,
        "ratio_to_d_sp": sol.cost / sol.baseline_d_sp,
        "frontier_size": sol.frontier_size,
        "wall_time_s": wall,
    }


def _emit(doc, out) -> None:
    out.write(json.dumps(doc, indent=2, sort_keys=False))
    out.write("\n")
    # a closed pipe fails here, where main reports it, not at the exit
    out.flush()


def cmd_solve(args, out) -> int:
    net, route = _load_instance(args)
    model = _resolve_model(args.model, net, route)
    report = run_report(net, route, args.variant, args.algo, model,
                        args.threads, args.network, args.route)
    _emit(report, out)
    return EXIT_NO_ALTERNATIVE if report["no_alternative"] else EXIT_OK


def cmd_bench(args, out) -> int:
    net, route = _load_instance(args)
    demands = []
    for tok in args.demands.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            demands.append(float(tok))
        except ValueError:
            raise CliError(f"bad demand {tok!r} in --demands") from None
    if not demands:
        raise CliError("--demands list is empty")
    if not all(isfinite(d) and d > 0 for d in demands):
        raise CliError("demands must be finite and > 0")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise CliError("--variants list is empty")
    model_specs = [m.strip() for m in args.models.split(",") if m.strip()]
    if not model_specs:
        raise CliError("--models list is empty")
    runs = []
    for d in demands:
        routed = Route(route.path, d)
        for variant in variants:
            for spec in model_specs:
                model = _resolve_model(spec, net, routed)
                runs.append(run_report(net, routed, variant, args.algo, model,
                                       args.threads, args.network, args.route))
    by_combo: dict = {}
    for rep in runs:
        by_combo.setdefault((rep["variant"], rep["model"]), []).append(rep)
    aggregates = [
        {
            "variant": variant,
            "model": model_name,
            "mean_cost_per_agent": sum(r["cost_per_agent"] for r in reps) / len(reps),
            "mean_ratio_to_d_sp": sum(r["ratio_to_d_sp"] for r in reps) / len(reps),
            "mean_usage": sum(r["usage"] for r in reps) / len(reps),
        }
        for (variant, model_name), reps in sorted(by_combo.items())
    ]
    _emit({"runs": runs, "aggregates": aggregates}, out)
    return EXIT_OK


def cmd_gadget(args, out) -> int:
    try:
        values = [int(tok) for tok in args.set.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--set {args.set!r} must be comma-separated integers") from None
    gadget = build_gadget(values, args.target)
    out_dir = FilePath(args.out)
    net_file = out_dir / "gadget.net"
    route_file = out_dir / "gadget.route"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        net_file.write_text(format_network(gadget.net), encoding="utf-8")
        route_file.write_text(format_route(gadget.route), encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write gadget files: {exc}") from None
    _emit({
        "network_file": str(net_file),
        "route_file": str(route_file),
        "values": list(gadget.m_values),
        "target": gadget.target,
        "total": gadget.total,
        "threshold": 6.0 * gadget.total,
        "model": f"indicator:{gadget.target}",
    }, out)
    return EXIT_OK


def cmd_export_geojson(args, out) -> int:
    net = parse_network(_read_text(args.network, "network file"))
    text = _read_text(args.report, "report")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot read report: {exc}") from None
    if not isinstance(report, dict):
        raise CliError("report is not a JSON object")
    for key in ("original_path", "path", "x", "cost"):
        if key not in report:
            raise CliError(f"report has no {key!r}")
    for key in ("original_path", "path"):
        names = report[key]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise CliError(f"report {key!r} is not a list of node names")

    def line_feature(vertex_names, role):
        coords = []
        for name in vertex_names:
            if name not in net.coords:
                raise CliError(f"node {name} has no coordinates; cannot export")
            coords.append(list(net.coords[name]))
        return {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coords},
            "properties": {"role": role},
        }

    original = line_feature(report["original_path"], "original")
    alternative = line_feature(report["path"], "alternative")
    alternative["properties"]["x"] = report["x"]
    alternative["properties"]["cost"] = report["cost"]
    _emit({"type": "FeatureCollection", "features": [original, alternative]}, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="saproute",
        description="Alternative-route solvers for congestion-aware strategic routing")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument("--network", required=True, help="network file")
        p.add_argument("--route", required=True, help="route file (original route + demand)")
        p.add_argument("--variant", default="sap", choices=["sap", "1d-sap", "d-sap"])
        p.add_argument("--algo", default="direct", choices=["direct", "fc"])
        p.add_argument("--threads", type=int, default=1)

    p_solve = sub.add_parser("solve", help="run one solver on an instance")
    add_instance_flags(p_solve)
    p_solve.add_argument("--model", required=True,
                         help="so | ue | linear:<c> | quotient:tanh:<a> | indicator:<w>")
    p_solve.add_argument("--demand", type=float, default=None,
                         help="override the route file's demand")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep demands and tabulate results")
    add_instance_flags(p_bench)
    p_bench.add_argument("--demands", required=True,
                         help="comma-separated demand values")
    p_bench.add_argument("--models", default="ue",
                         help="comma-separated model specs")
    p_bench.add_argument("--variants", default="sap",
                         help="comma-separated variants")
    p_bench.set_defaults(func=cmd_bench, demand=None)

    p_gadget = sub.add_parser("gadget", help="emit a subset-sum reduction instance")
    p_gadget.add_argument("--set", required=True, help="comma-separated positive integers")
    p_gadget.add_argument("--target", required=True, type=int)
    p_gadget.add_argument("--out", required=True, help="output directory")
    p_gadget.set_defaults(func=cmd_gadget)

    p_geo = sub.add_parser("export-geojson", help="export a solve report for map display")
    p_geo.add_argument("--network", required=True)
    p_geo.add_argument("--report", required=True, help="JSON report from solve")
    p_geo.set_defaults(func=cmd_export_geojson)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except (CliError, NetworkError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        if out is sys.stdout:
            # the reader is gone: the interpreter's last flush must not raise
            # again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: the report's reader closed its end of the pipe", file=sys.stderr)
        return EXIT_ERROR

"""Driving everything through the command line.

Writes a grid instance to disk in the network/route file format, then runs
the solve, bench, gadget and export-geojson subcommands the way a shell
user would, capturing their JSON reports.
"""
import io
import json
import tempfile
from pathlib import Path

from saproute.cli import main
from saproute.network import format_network, format_route
from saproute.synthetic import corridor_instance


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


workdir = Path(tempfile.mkdtemp(prefix="saproute-tour-"))
net, route = corridor_instance(8, 8, demand=800.0, seed=3)
# attach plausible coordinates so the map export has something to draw
lon0, lat0 = 13.30, 52.48
coords = {v: (lon0 + (v % 8) * 0.01, lat0 + (v // 8) * 0.008) for v in net.nodes}
net = type(net).build(net.mode, net.nodes,
                      [(e.tail, e.head, e.cost) for e in net.edges], coords)
net_file = workdir / "grid.net"
route_file = workdir / "grid.route"
net_file.write_text(format_network(net), encoding="utf-8")
route_file.write_text(format_route(route), encoding="utf-8")
print(f"instance files in {workdir}")

code, text = run(["solve", "--network", str(net_file), "--route", str(route_file),
                  "--variant", "sap", "--model", "ue"])
report = json.loads(text)
print(f"solve: exit {code}, cost/agent {report['cost_per_agent']:.1f}, "
      f"usage {report['usage']:.2f}, ratio to loaded-shortest-path "
      f"{report['ratio_to_d_sp']:.3f}")
(workdir / "report.json").write_text(text, encoding="utf-8")

code, text = run(["bench", "--network", str(net_file), "--route", str(route_file),
                  "--demands", "100,500,1000,1500,2000,2500,3000",
                  "--models", "so,ue,linear:1"])
bench = json.loads(text)
print("\nbench aggregates:")
for agg in bench["aggregates"]:
    print(f"  {agg['model']:<9} mean cost/agent {agg['mean_cost_per_agent']:>9.1f}  "
          f"mean usage {agg['mean_usage']:.3f}")
usage_by_demand = [r["usage"] for r in bench["runs"] if r["model"] == "ue"]
print(f"  ue usage over the demand sweep: "
      + " ".join(f"{u:.2f}" for u in usage_by_demand))

code, text = run(["gadget", "--set", "4,7,9", "--target", "11",
                  "--out", str(workdir / "gadget")])
gadget = json.loads(text)
code, text = run(["solve", "--network", gadget["network_file"],
                  "--route", gadget["route_file"], "--model", gadget["model"]])
print(f"\ngadget solve: cost {json.loads(text)['cost']:g} vs threshold "
      f"{gadget['threshold']:g} (subset 4+7 reaches 11)")

code, text = run(["export-geojson", "--network", str(net_file),
                  "--report", str(workdir / "report.json")])
geo = json.loads(text)
print(f"\ngeojson export: {len(geo['features'])} features, roles "
      f"{[f['properties']['role'] for f in geo['features']]}")

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from saproute import brute_force_all_variants, parse_model, parse_network, parse_route
from saproute.cli import main


PAIR_NET = """mode quadratic
node s 13.30 52.50
node t 13.45 52.52
edge s t a=1 b=4
edge s t a=1 b=1
"""

PAIR_ROUTE = "route 2 s t\n"

CHAIN_NET = """mode quadratic
node s
node m
node t
edge s m a=1 b=1
edge m t a=1 b=1
"""

CHAIN_ROUTE = "route 2 s m t\n"


@pytest.fixture
def pair_files(tmp_path):
    net = tmp_path / "pair.net"
    route = tmp_path / "pair.route"
    net.write_text(PAIR_NET)
    route.write_text(PAIR_ROUTE)
    return str(net), str(route)


@pytest.fixture
def chain_files(tmp_path):
    net = tmp_path / "chain.net"
    route = tmp_path / "chain.route"
    net.write_text(CHAIN_NET)
    route.write_text(CHAIN_ROUTE)
    return str(net), str(route)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_solve_reports_worked_example(pair_files):
    net, route = pair_files
    code, text = run(["solve", "--network", net, "--route", route,
                      "--variant", "sap", "--model", "ue"])
    assert code == 0
    report = json.loads(text)
    assert report["cost"] == pytest.approx(8.125, rel=1e-9)
    assert report["path"] == ["s", "t"]
    assert report["usage"] == pytest.approx(0.875, rel=1e-9)
    assert report["ratio_to_d_sp"] == pytest.approx(8.125 / 10.0, rel=1e-9)


def test_solve_demand_override(pair_files):
    net, route = pair_files
    code, text = run(["solve", "--network", net, "--route", route,
                      "--model", "so", "--demand", "2"])
    assert code == 0
    assert json.loads(text)["cost"] == pytest.approx(6.625, rel=1e-9)
    code, _ = run(["solve", "--network", net, "--route", route,
                   "--model", "so", "--demand", "-3"])
    assert code == 1


def test_system_optimum_of_nearly_tied_slopes_matches_the_brute_force(tmp_path):
    # the slope sums 0.1 + 0.2 and 0.3 tie to an ulp; the optimum splits
    # the demand evenly, where all on the original route costs 310
    net = tmp_path / "tie.net"
    route = tmp_path / "tie.route"
    net.write_text("mode quadratic\nnode s\nnode m\nnode t\nedge s m a=0.1 b=0.5\n"
                   "edge m t a=0.2 b=0.5\nedge s t a=0.3 b=1\n")
    route.write_text("route 10 s t\n")
    code, text = run(["solve", "--network", str(net), "--route", str(route),
                      "--model", "so"])
    assert code == 0
    report = json.loads(text)
    net_obj = parse_network(net.read_text())
    brute = brute_force_all_variants(net_obj, parse_route(route.read_text(), net_obj),
                                     parse_model("so"))["sap"]
    assert report["cost"] == pytest.approx(brute.cost, rel=1e-9)
    assert report["cost"] == pytest.approx(85.0, rel=1e-9)
    assert report["x"] == pytest.approx(5.0, rel=1e-6)


def test_d_sap_without_alternative_exits_2(chain_files):
    # the chain's one s-t path is the original route: no form has an
    # alternative, whether or not its frontier holds the route
    net, route = chain_files
    for variant, algo in [("d-sap", "direct"), ("sap", "direct"), ("sap", "fc"),
                          ("1d-sap", "direct"), ("1d-sap", "fc")]:
        code, text = run(["solve", "--network", net, "--route", route,
                          "--variant", variant, "--algo", algo, "--model", "ue"])
        assert code == 2, (variant, algo)
        report = json.loads(text)
        assert report["no_alternative"] is True
        assert report["path"] == ["s", "m", "t"]
        assert report["cost"] == report["cost_all_on_original"]


def test_unknown_model_exits_1(pair_files):
    net, route = pair_files
    code, _ = run(["solve", "--network", net, "--route", route,
                   "--model", "wishful"])
    assert code == 1


def test_malformed_network_exits_1(tmp_path, pair_files):
    bad = tmp_path / "bad.net"
    bad.write_text("mode quadratic\nnode a\nedge a zz a=1 b=1\n")
    code, _ = run(["solve", "--network", str(bad), "--route", pair_files[1],
                   "--model", "ue"])
    assert code == 1


@pytest.mark.parametrize("net_text, route_text, extra", [
    (PAIR_NET.replace("a=1 b=1", "a=nan b=1"), PAIR_ROUTE, []),
    (PAIR_NET.replace("a=1 b=4", "a=1 b=inf"), PAIR_ROUTE, []),
    (PAIR_NET, "route nan s t\n", []),
    (PAIR_NET, PAIR_ROUTE, ["--demand", "nan"]),
    (PAIR_NET, PAIR_ROUTE, ["--threads", "0"]),
    (PAIR_NET, PAIR_ROUTE, ["--model", "linear:nan"]),
    (PAIR_NET, PAIR_ROUTE, ["--model", "quotient:tanh:inf"]),
])
def test_non_finite_input_and_bad_threads_exit_1(tmp_path, capsys, net_text,
                                                 route_text, extra):
    net, route = tmp_path / "x.net", tmp_path / "x.route"
    net.write_text(net_text)
    route.write_text(route_text)
    code, _ = run(["solve", "--network", str(net), "--route", str(route),
                   "--variant", "1d-sap", "--algo", "fc", "--model", "ue"] + extra)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("model, demand", [("ue", "1e200"), ("so", "1e150")])
def test_a_demand_whose_total_cost_overflows_exits_1(tmp_path, capsys, model, demand):
    net, route = tmp_path / "x.net", tmp_path / "x.route"
    net.write_text("mode quadratic\nnode s\nnode a\nnode t\n"
                   "edge s a a=1 b=1\nedge a t a=1 b=1\nedge s t a=1 b=3\n")
    route.write_text("route 2 s t\n")
    for algorithm in ("direct", "fc"):
        code, text = run(["solve", "--network", str(net), "--route", str(route),
                          "--algo", algorithm, "--model", model, "--demand", demand])
        assert code == 1 and text == ""
        _one_error_line(capsys)


def test_reports_are_deterministic_excluding_wall_time(pair_files):
    net, route = pair_files
    argv = ["solve", "--network", net, "--route", route, "--model", "ue"]
    _, first = run(argv)
    _, second = run(argv)
    strip = lambda text: {k: v for k, v in json.loads(text).items()
                          if k != "wall_time_s"}
    assert strip(first) == strip(second)
    _, threaded = run(argv + ["--algo", "fc", "--threads", "8"])
    _, single = run(argv + ["--algo", "fc", "--threads", "1"])
    assert strip(threaded) == strip(single)


def test_bench(pair_files):
    net, route = pair_files
    code, text = run(["bench", "--network", net, "--route", route,
                      "--demands", "1,2,4", "--models", "ue,so"])
    assert code == 0
    doc = json.loads(text)
    assert len(doc["runs"]) == 6
    by_model = {(r["model"], r["demand"]): r for r in doc["runs"]}
    assert by_model[("ue", 2.0)]["cost"] == pytest.approx(8.125, rel=1e-9)
    assert by_model[("so", 2.0)]["cost"] == pytest.approx(6.625, rel=1e-9)
    assert {a["model"] for a in doc["aggregates"]} == {"ue", "so"}
    # single demand degenerates to the solve report values
    code, text = run(["bench", "--network", net, "--route", route,
                      "--demands", "2", "--models", "ue"])
    assert json.loads(text)["runs"][0]["cost"] == pytest.approx(8.125, rel=1e-9)
    for demands in (" ", "1,nan", "1,x"):
        code, _ = run(["bench", "--network", net, "--route", route,
                       "--demands", demands, "--models", "ue"])
        assert code == 1


def test_gadget_roundtrip(tmp_path):
    out_dir = tmp_path / "gadget"
    code, text = run(["gadget", "--set", "1,2", "--target", "3",
                      "--out", str(out_dir)])
    assert code == 0
    doc = json.loads(text)
    code, text = run(["solve", "--network", doc["network_file"],
                      "--route", doc["route_file"],
                      "--model", doc["model"]])
    assert code == 0
    assert json.loads(text)["cost"] == pytest.approx(12.0)

    code, text = run(["gadget", "--set", "2,4", "--target", "3",
                      "--out", str(out_dir / "no")])
    doc = json.loads(text)
    code, text = run(["solve", "--network", doc["network_file"],
                      "--route", doc["route_file"],
                      "--model", doc["model"]])
    assert json.loads(text)["cost"] == pytest.approx(36.0)

    code, _ = run(["gadget", "--set", "1,2", "--target", "0",
                   "--out", str(out_dir)])
    assert code == 1


@pytest.mark.parametrize("values", ["9007199254740992,1,1", "1" + "0" * 400 + ",1"])
def test_gadget_past_exact_floats_exits_1(tmp_path, capsys, values):
    # 6 * sum(M) above 2**53 would give inexact costs, or overflow a float
    code, text = run(["gadget", "--set", values, "--target", "9007199254740993",
                      "--out", str(tmp_path / "gadget")])
    assert code == 1 and text == ""
    _one_error_line(capsys)
    assert not (tmp_path / "gadget").exists()


def test_export_geojson(tmp_path, pair_files):
    net, route = pair_files
    _, text = run(["solve", "--network", net, "--route", route, "--model", "ue"])
    report_file = tmp_path / "report.json"
    report_file.write_text(text)
    code, geo = run(["export-geojson", "--network", net,
                     "--report", str(report_file)])
    assert code == 0
    doc = json.loads(geo)
    assert doc["type"] == "FeatureCollection"
    assert len(doc["features"]) == 2
    roles = {f["properties"]["role"] for f in doc["features"]}
    assert roles == {"original", "alternative"}
    for f in doc["features"]:
        assert f["geometry"]["coordinates"] == [[13.30, 52.50], [13.45, 52.52]]

    bare = tmp_path / "bare.net"
    bare.write_text("mode quadratic\nnode s\nnode t\nedge s t a=1 b=1\n")
    code, _ = run(["export-geojson", "--network", str(bare),
                   "--report", str(report_file)])
    assert code == 1


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("report", [
    {"path": ["s", "t"], "x": 1.0, "cost": 2.0},
    {"original_path": ["s", "t"], "x": 1.0, "cost": 2.0},
    {"original_path": ["s", "t"], "path": ["s", "t"], "cost": 2.0},
    {"original_path": ["s", "t"], "path": ["s", "t"], "x": 1.0},
    {"original_path": ["s", "t"], "path": 5, "x": 1.0, "cost": 2.0},
    {"original_path": [["s"], "t"], "path": ["s", "t"], "x": 1.0, "cost": 2.0},
    {"original_path": ["s", "t"], "path": "st", "x": 1.0, "cost": 2.0},
    ["s", "t"],
])
def test_export_geojson_refuses_malformed_reports(tmp_path, capsys, pair_files,
                                                   report):
    report_file = tmp_path / "report.json"
    report_file.write_text(json.dumps(report))
    code, text = run(["export-geojson", "--network", pair_files[0],
                      "--report", str(report_file)])
    assert code == 1 and text == ""
    _one_error_line(capsys)


def test_export_geojson_unreadable_network_exits_1(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    report_file.write_text("{}")
    code, _ = run(["export-geojson", "--network", str(tmp_path / "missing.net"),
                   "--report", str(report_file)])
    assert code == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("kind", ["network", "route", "report"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, pair_files, kind):
    net, route = pair_files
    bad = tmp_path / "bad"
    if kind == "report":
        bad.write_bytes(b"\xff\xfe{}")
        argv = ["export-geojson", "--network", net, "--report", str(bad)]
    else:
        bad.write_bytes((PAIR_NET if kind == "network" else PAIR_ROUTE).encode() + b"\xff")
        argv = ["solve", "--network", str(bad) if kind == "network" else net,
                "--route", str(bad) if kind == "route" else route, "--model", "ue"]
    code, text = run(argv)
    assert code == 1 and text == ""
    _one_error_line(capsys)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # a node named "ä": under the C locale's ASCII a locale-dependent read
    # fails on its first byte, 0xc3
    net, route = tmp_path / "umlaut.net", tmp_path / "umlaut.route"
    net.write_bytes(PAIR_NET.replace("node t", "node ä").replace(" s t ", " s ä ")
                    .encode("utf-8"))
    route.write_bytes("route 2 s ä\n".encode("utf-8"))
    src = Path(__file__).resolve().parent.parent / "src"
    reports = []
    for locale_env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                       {"LC_ALL": "C.UTF-8"}):
        done = subprocess.run(
            [sys.executable, "-m", "saproute", "solve", "--network", str(net),
             "--route", str(route), "--model", "ue"],
            env={**os.environ, "PYTHONPATH": str(src), **locale_env},
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        report = json.loads(done.stdout)
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert "ä" in json.dumps(reports[0], ensure_ascii=False)


def test_a_solve_loads_no_numpy(pair_files):
    # only the oracle's system-optimum scan uses numpy, and it imports it
    net, route = pair_files
    script = ("import sys, saproute.cli\n"
              "assert 'numpy' not in sys.modules, 'import'\n"
              f"code = saproute.cli.main(['solve', '--network', {net!r}, '--route', {route!r},"
              " '--model', 'so'])\n"
              "assert code == 0 and 'numpy' not in sys.modules, 'solve'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("blocked", ["out", "net"])
def test_gadget_unwritable_out_exits_1(tmp_path, capsys, blocked):
    # --out names an existing file, or gadget.net is a directory
    out_dir = tmp_path / "gadget"
    if blocked == "out":
        out_dir.write_text("")
    else:
        (out_dir / "gadget.net").mkdir(parents=True)
    code, text = run(["gadget", "--set", "1,2,3", "--target", "3",
                      "--out", str(out_dir)])
    assert code == 1 and text == ""
    _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--models", "--variants"])
def test_bench_refuses_empty_lists(capsys, pair_files, flag):
    net, route = pair_files
    code, text = run(["bench", "--network", net, "--route", route,
                      "--demands", "1,2", flag, " , "])
    assert code == 1 and text == ""
    _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    [],
    ["solve"],
    ["fly"],
    ["solve", "--network", "n", "--route", "r", "--model", "ue", "--variant", "bogus"],
    ["solve", "--network", "n", "--route", "r", "--model", "ue", "--threads", "two"],
    ["bench", "--network", "n", "--route", "r"],
])
def test_usage_errors_exit_1_not_2(capsys, argv):
    code, text = run(argv)
    assert code == 1 and text == ""
    _one_error_line(capsys)


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["solve", "--bogus"], 1)])
def test_python_dash_m_runs_the_command_line(tmp_path, argv, code):
    # the uninstalled form: only src/ on the path
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "saproute", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr[-2000:]
    if code == 0:
        assert done.stdout.startswith("usage: saproute") and done.stderr == ""
    else:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("net_text", [
    "mode quadratic\nnode s\nnode t\nedge s t a=1.5 b=1.5\nedge s t a=1 b=1\n",
    "mode affine\nnode s\nnode t\nedge s t b=1.5 c=1.5\nedge s t b=1 c=0\n",
    "mode affine\nnode s\nnode t\nedge s t b=3 c=2\nedge s t b=1 c=0\n",
], ids=["quadratic", "fractional", "unequal"])
def test_an_indicator_model_needs_a_gadget_shaped_route(tmp_path, capsys, net_text):
    # the instance total is read from the route's cost s*x + s: any other
    # cost would silently score another model
    net, route = tmp_path / "n.net", tmp_path / "n.route"
    net.write_text(net_text)
    route.write_text("route 2 s t\n")
    code, text = run(["solve", "--network", str(net), "--route", str(route),
                      "--model", "indicator:1"])
    assert code == 1 and text == ""
    _one_error_line(capsys)


def test_an_indicator_model_solves_the_gadget_it_names(tmp_path):
    _, text = run(["gadget", "--set", "3,5,7", "--target", "8",
                   "--out", str(tmp_path)])
    doc = json.loads(text)
    code, text = run(["solve", "--network", doc["network_file"], "--route",
                      doc["route_file"], "--model", doc["model"]])
    assert code == 0
    assert json.loads(text)["cost"] < doc["threshold"]   # 3 + 5 = 8


def test_a_closed_stdout_exits_1_with_one_error_line(tmp_path):
    # the reader is gone before the report is written: no traceback, and
    # nothing raised again by the interpreter's last flush
    net, route = tmp_path / "pair.net", tmp_path / "pair.route"
    net.write_text(PAIR_NET)
    route.write_text(PAIR_ROUTE)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "saproute", "solve", "--network", str(net),
         "--route", str(route), "--model", "ue"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 1, err[-2000:]
    assert err.startswith("error: ") and err.count("\n") == 1, err[-2000:]

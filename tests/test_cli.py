import io
import json

import pytest

from patchdesign import cli
from patchdesign.model import example_network_path

MODEL = str(example_network_path())


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_no_arguments_prints_usage_and_fails():
    code, out, err = run_cli()
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, _, _ = run_cli("--help")
    assert code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_version(capsys):
    code, _, _ = run_cli("--version")
    assert code == 0
    assert capsys.readouterr().out.strip().count(".") == 2


def test_security_base_patched():
    code, out, _ = run_cli("security", "--model", MODEL,
                           "--design", "base", "--patched")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[0] == "base"
    assert float(row[2]) == pytest.approx(42.2)
    assert [int(x) for x in row[4:]] == [11, 4, 2]


def test_security_unpatched_csv():
    code, out, _ = run_cli("security", "--model", MODEL, "--design", "base",
                           "--unpatched", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["aim"] == "52.2"
    assert fields["asp"] == "1"
    assert fields["noev"] == "26"


def test_security_json_format():
    code, out, _ = run_cli("security", "--model", MODEL, "--design", "base",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["noap"] == 4


def test_availability_reports_coa():
    code, out, _ = run_cli("availability", "--model", MODEL, "--design", "base")
    assert code == 0
    coa_line = next(l for l in out.splitlines() if l.startswith("COA[base]"))
    assert float(coa_line.split("=")[1]) == pytest.approx(0.99707, abs=1e-4)
    assert "720" in out  # aggregate table present


def test_compare_writes_region_files(tmp_path):
    code, out, _ = run_cli(
        "compare", "--model", MODEL, "--design", "all",
        "--bounds", "phi=0.2,psi=0.9962", "--out", str(tmp_path))
    assert code == 0
    regions = json.loads((tmp_path / "regions.json").read_text())
    assert set(regions[0]["accepted"]) == \
        {"1dns-1web-2app-1db", "1dns-1web-1app-2db"}
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "design,patched,asp,coa"
    assert len(scatter) == 7  # six designs
    assert (tmp_path / "radar.csv").exists()


@pytest.mark.parametrize("xi", [7, 9])
def test_compare_applies_a_lone_count_bound(tmp_path, xi):
    # phi=1, psi=0 accept every design, so only xi can drop one
    code, _, _ = run_cli("compare", "--model", MODEL, "--design", "all",
                         "--bounds", f"phi=1,psi=0,xi={xi}", "--out", str(tmp_path))
    assert code == 0
    accepted = set(json.loads((tmp_path / "regions.json").read_text())[0]["accepted"])
    radar = (tmp_path / "radar.csv").read_text().strip().splitlines()
    rows = [dict(zip(radar[0].split(","), line.split(","))) for line in radar[1:]]
    expected = {r["design"] for r in rows if int(r["noev"]) <= xi}
    assert accepted == expected
    assert 0 < len(expected) < len(rows)


def test_compare_is_deterministic(tmp_path):
    args = ("compare", "--model", MODEL, "--bounds", "phi=0.1,psi=0.9961",
            "--out", str(tmp_path))
    run_cli(*args)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run_cli(*args)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_unknown_design_is_validation_error():
    code, _, err = run_cli("security", "--model", MODEL, "--design", "nope")
    assert code == 1
    assert "nope" in err


def test_missing_model_file():
    code, _, err = run_cli("security", "--model", "/does/not/exist.json")
    assert code == 1
    assert err


def test_invalid_bounds_key():
    code, _, err = run_cli("compare", "--model", MODEL,
                           "--bounds", "zeta=1", "--out", "/tmp")
    assert code == 1
    assert "zeta" in err


def test_rate_override_changes_aggregates():
    code, out, _ = run_cli("availability", "--model", MODEL,
                           "--design", "base", "--format", "csv",
                           "--rate-override", "dns.svc_patch_mean=50")
    assert code == 0
    dns_row = next(l for l in out.splitlines() if l.startswith("dns,"))
    # longer patch stage -> longer MTTR than the stock 0.6667 h
    assert float(dns_row.split(",")[3]) > 1.0


def test_rate_override_rejects_unknown_param():
    code, _, err = run_cli("availability", "--model", MODEL,
                           "--rate-override", "dns.bogus=1")
    assert code == 1
    assert "bogus" in err


def test_solve_srn_subcommand(tmp_path):
    netpath = tmp_path / "net.txt"
    netpath.write_text(
        "place up 1\nplace down 0\n"
        "timed fail rate=0.25 in=up out=down\n"
        "timed repair rate=1.0 in=down out=up\n"
        'reward avail "#up == 1" = 1.0\n')
    code, out, _ = run_cli("solve-srn", str(netpath))
    assert code == 0
    assert "tangible states: 2" in out
    assert "reward avail = 0.8" in out


def test_solve_srn_timeless_trap_is_solver_error(tmp_path):
    netpath = tmp_path / "trap.txt"
    netpath.write_text(
        "place a 1\nplace b 0\n"
        "immediate ab in=a out=b\nimmediate ba in=b out=a\n")
    code, _, err = run_cli("solve-srn", str(netpath))
    assert code == 2
    assert "timeless" in err.lower()


def test_solve_srn_syntax_error(tmp_path):
    netpath = tmp_path / "bad.txt"
    netpath.write_text("plaze a 1\n")
    code, _, err = run_cli("solve-srn", str(netpath))
    assert code == 1
    assert "line 1" in err

import json

import pytest

from pfising.cli import main
from pfising.fileio import format_graph, format_scheme
from pfising.fixtures import get_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_uniform_triangle(capsys):
    code, out, _ = run(capsys, "compute", "--fixture", "k3",
                       "--weights", "uniform:0.5", "--method", "brute")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.125)


def test_compute_planar_json(capsys):
    code, out, _ = run(capsys, "compute", "--fixture", "k4",
                       "--weights", "uniform:0.5", "--method", "planar", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "planar"
    assert payload["value"] == pytest.approx(1 + 4 * 0.5 ** 3 + 3 * 0.5 ** 4, rel=1e-9)


def test_compute_multicomplex_matches_brute(capsys):
    code, out, _ = run(capsys, "compute", "--fixture", "k5-projective",
                       "--weights", "uniform:0.5", "--method", "multicomplex")
    assert code == 0
    z_mc = float(out.strip())
    code, out, _ = run(capsys, "compute", "--fixture", "k5-projective",
                       "--weights", "uniform:0.5", "--method", "brute")
    z_b = float(out.strip())
    assert z_mc == pytest.approx(z_b, rel=1e-9)


def test_compute_missing_scheme_exits_2(tmp_path, capsys):
    gfile = tmp_path / "k5.g"
    gfile.write_text(format_graph(get_fixture("k5-projective").graph))
    code, _out, err = run(capsys, "compute", "--graph", str(gfile),
                          "--weights", "uniform:0.5", "--method", "multicomplex")
    assert code == 2
    assert "scheme" in err


def test_compute_from_files(tmp_path, capsys):
    fx = get_fixture("k33-projective")
    gfile = tmp_path / "k33.g"
    sfile = tmp_path / "k33.s"
    gfile.write_text(format_graph(fx.graph))
    sfile.write_text(format_scheme(fx.scheme))
    code, out, _ = run(capsys, "compute", "--graph", str(gfile), "--scheme", str(sfile),
                       "--weights", "uniform:0.5", "--method", "auto")
    assert code == 0
    code, out2, _ = run(capsys, "compute", "--fixture", "k33-projective",
                        "--weights", "uniform:0.5", "--method", "brute")
    assert float(out.strip()) == pytest.approx(float(out2.strip()), rel=1e-9)


def test_verify_fixture_passes(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "grid2x2", "--draws", "5")
    assert code == 0
    assert "PASS" in out


def test_verify_expect_obstruction(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "k33-projective",
                       "--draws", "3", "--expect-obstruction", "--trials", "10")
    assert code == 0
    assert "obstruction" in out


def test_verify_json_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--fixture", "k3", "--draws", "3",
                        "--seed", "5", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--fixture", "k3", "--draws", "3",
                        "--seed", "5", "--json")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("seconds"); r2.pop("seconds")
    assert r1 == r2


def test_obstruction_command(capsys):
    code, out, _ = run(capsys, "obstruction", "k5", "--trials", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["worst_residual"] <= 1e-9


def test_dartgraph_counts(capsys):
    code, out, _ = run(capsys, "dartgraph", "--fixture", "k5-projective", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["darts"] == 20
    assert payload["site_edges"] == 30
    assert payload["link_edges"] == 10
    assert payload["perfect_matchings"] == 416


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--pair", "hex-patch", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"]
    assert payload["relative_deviation"] <= 1e-9


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    for name in ("k3", "torus-grid3x3", "hex-patch"):
        assert name in out


def test_env_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("PFI_TOL", "1e-3")
    code, _out, _ = run(capsys, "verify", "--fixture", "k3", "--draws", "2")
    assert code == 0


def test_dump_matrix(tmp_path, capsys):
    out_file = tmp_path / "k5.mat"
    code, _out, _ = run(capsys, "compute", "--fixture", "k5-projective",
                        "--weights", "uniform:0.5", "--method", "multicomplex",
                        "--dump-matrix", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("order 20\nring multicomplex\n")


def test_every_fixture_verifies_quickly():
    import time
    from pfising.fixtures import fixture_names
    from pfising.verify import verify_fixture

    for name in fixture_names():
        start = time.time()
        report = verify_fixture(name, seed=1, draws=10)
        assert report.passed, name
        assert report.fa_spread is not None, name
        assert time.time() - start < 60.0

"""Command-line interface: exit codes, config handling, emitted documents."""

import csv
import json
import math
import os
import re
import tracemalloc

import pytest

from geolorenz import DEFAULT_RECIPE, ConfigError
from geolorenz.cli import run
from geolorenz.config import default_config, load_config, parse_config_text


def read_json(outdir, name):
    with open(os.path.join(outdir, name + ".json")) as fh:
        return json.load(fh)


def read_csv(outdir, name):
    with open(os.path.join(outdir, name + ".csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_validate_success(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "validate"]) == 0
    payload = read_json(out, "validate")
    assert payload["all_pass"] is True
    envelope = read_json(out, "envelope")
    assert envelope["tool"] == "geolorenz"
    assert "validate.json" in envelope["payload_files"]
    assert len(envelope["config_sha256"]) == 64
    assert os.path.exists(os.path.join(out, "config.echo.cfg"))


def test_validate_axiom_failure_exits_2(tmp_path):
    cfg = tmp_path / "bad_model.cfg"
    cfg.write_text("model.beta = 2.05\n")
    out = str(tmp_path / "r")
    assert run(["--config", str(cfg), "--out", out, "validate"]) == 2
    assert read_json(out, "validate")["all_pass"] is False


@pytest.mark.parametrize("text,fragment", [
    ("model.gamma = 1.0\n", "unknown"),
    ("model.beta = fast\n", "model.beta"),
    ("model.beta = 1.7\nmodel.beta = 1.8\n", "duplicate"),
    ("just some words\n", "bad.cfg:1"),
    ("catalog.horseshoes = 12:0.002\n", "horseshoe"),
    ("output.format = yaml\n", "format"),
    ("catalog.extra_words = LRX\n", "words"),
    ("catalog.horseshoes = 12:1.5:0\n", "x_gap"),
    ("catalog.horseshoes = 30:0.002:0\n", "horseshoe depth 30"),
    ("catalog.horseshoes = 12:nan:0\n", "x_gap"),
    ("catalog.horseshoes = 12:0.002:inf\n", "finite"),
    ("catalog.periods = 17\n", "periods"),
    ("catalog.extra_words = LR,%s\n" % ("LR" * 50), "at most 96 symbols"),
    ("model.beta = nan\n", "beta must be positive"),
    ("roof.c0 = nan\n", "c0 must be positive"),
    ("model.alpha = 1.5\n", "alpha must lie in (0, 1]"),
    ("roof.eta0 = 1.0\n", "eta0 must lie in (0, 1)"),
])
def test_config_errors_exit_4(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "--out",
                str(tmp_path / "r"), "validate"]) == 4
    err = capsys.readouterr().err.lower()
    assert "config error" in err
    assert re.search(r"bad\.cfg:\d+: ", err)
    assert fragment.lower() in err


def test_config_parse_is_line_precise():
    with pytest.raises(ConfigError) as err:
        parse_config_text("model.alpha = 1.0\nmodel.what = 3\n", origin="x.cfg")
    msg = str(err.value)
    assert "x.cfg:2" in msg and "model.what" in msg


def test_config_round_trip(tmp_path):
    base = default_config()
    echo = tmp_path / "echo.cfg"
    echo.write_text(base.render())
    again = load_config(str(echo))
    assert again.digest() == base.digest()
    assert again.render() == base.render()
    # non-default values survive the round trip too
    cfg = parse_config_text("model.beta = 1.64\ncatalog.periods = 2,4\n")
    clone = parse_config_text(cfg.render())
    assert clone.digest() == cfg.digest()
    assert clone["model.beta"] == 1.64
    assert clone["catalog.periods"] == (2, 4)


def test_default_config_builds_the_default_recipe():
    # the CLI reads the config and `repro` reads DEFAULT_RECIPE; the two
    # catalogs must not drift apart
    got = default_config().make_recipe()
    for field in ("periods", "extra_words", "include_delta"):
        assert getattr(got, field) == getattr(DEFAULT_RECIPE, field)
    assert len(got.horseshoes) == len(DEFAULT_RECIPE.horseshoes)
    for mine, theirs in zip(got.horseshoes, DEFAULT_RECIPE.horseshoes):
        for field in ("depth", "x_gap", "t_values"):
            assert getattr(mine, field) == getattr(theirs, field)
    # the canonical echo, and so every default run's config digest
    assert default_config().digest() == (
        "bd2d14a20bbb1abc547dfd5c1e07c5eb70bf7465e2fcd8460b6792dc572beee9")


def test_config_comments_and_blanks(tmp_path):
    cfg = parse_config_text("# comment\n\nmodel.alpha = 1.0\n")
    assert cfg["model.alpha"] == 1.0


def test_orbits_table(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "orbits", "--max-period", "5"]) == 0
    rows = read_csv(out, "orbits")
    assert rows
    assert list(rows[0]) == ["word", "period", "point", "multiplier"]
    keys = [(int(r["period"]), r["word"]) for r in rows]
    assert keys == sorted(keys)
    assert all(float(r["multiplier"]) > math.sqrt(2.0) for r in rows)


@pytest.mark.parametrize("beta", ["1.618033988749895",
                                  "1.9275619754829254"])
def test_orbits_at_sliver_models(tmp_path, beta):
    # finite kneading: the pair ends at 0 after 2 or 4 symbols, and the
    # fixed-point words are inadmissible, not an internal fault (exit 3)
    cfg = tmp_path / "sliver.cfg"
    cfg.write_text("model.beta = %s\n" % beta)
    out = str(tmp_path / "r")
    assert run(["--config", str(cfg), "--out", out, "orbits",
                "--max-period", "2"]) == 0
    assert [r["word"] for r in read_json(out, "orbits")["orbits"]] == ["LR"]


def test_horseshoe_summary(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "horseshoe", "--depth", "10",
                "--x-gap", "0.2"]) == 0
    payload = read_json(out, "horseshoe")
    assert payload["largest_component"] == 2
    assert payload["n_vertices"] >= 2


def test_pressure_transfer_command(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "pressure", "--method", "transfer",
                "--potential", "const:0"]) == 0
    est = read_json(out, "pressure")["estimate"]
    assert est["value"] == pytest.approx(math.log(1.7), rel=0.01)
    assert est["method"] == "transfer"


def test_pressure_separated_command(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "pressure", "--method", "separated",
                "--potential", "const:0", "--n", "18",
                "--eps", "1e-3"]) == 0
    est = read_json(out, "pressure")["estimate"]
    assert est["method"] == "separated"
    assert est["value"] == pytest.approx(math.log(1.7), rel=0.05)


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_pressure_separated_non_finite_eps_exits_3(tmp_path, capsys, eps):
    out = str(tmp_path / "r")
    assert run(["--out", out, "pressure", "--method", "separated",
                "--potential", "const:0", "--eps", eps]) == 3
    assert "eps must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["validate", "--grid-density", "100001"],
     "grid_density must be <= 100000, got 100001"),
    (["pressure", "--method", "separated", "--potential", "const:0",
      "--n", "6000001", "--eps", "1"],
     "n = 6000001 rows by 13 grid points exceeds the memory budget"),
])
def test_unbounded_inputs_exit_3_before_allocating(tmp_path, capsys, argv,
                                                   fragment):
    # 100,001 x 21 fiber values would take 16.8 MB, and a 6,000,001 x 13
    # orbit matrix 624 MB: each is refused before any array is built
    out = str(tmp_path / "r")
    tracemalloc.start()
    try:
        code = run(["--out", out] + argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert fragment in capsys.readouterr().err
    assert peak < 2 ** 20


def test_bad_potential_spec_exits_4(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run(["--out", out, "pressure", "--potential", "wavelet:3"]) == 4
    assert "config error" in capsys.readouterr().err


def _grid_file(tmp_path, lipschitz):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"xs": [-1.0, 0.0, 1.0],
                                "values": [0.0, 0.1, 0.0],
                                "lipschitz": lipschitz}))
    return ["pressure", "--potential", "grid:%s" % path]


def _catalog_file(tmp_path, entry):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"measures": [{"variant": "delta_sigma"},
                                             entry]}))
    return ["gap-demo", "--catalog", str(path)]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["pressure", "--potential", "grid:seed:-1"],
    lambda tmp: _grid_file(tmp, "abc"),
    lambda tmp: _catalog_file(tmp, {"variant": "atomic"}),
    lambda tmp: _catalog_file(tmp, ["x"]),
    lambda tmp: _catalog_file(tmp, {"variant": "atomic", "word": 5}),
    lambda tmp: _catalog_file(tmp, {"variant": "markov", "depth": 8,
                                    "x_gap": 0.0, "probs": [],
                                    "stationary": []}),
    lambda tmp: _catalog_file(tmp, {"variant": "markov", "depth": 2,
                                    "x_gap": 0.0, "vertices": ["LR"],
                                    "probs": [], "stationary": []}),
    lambda tmp: _catalog_file(tmp, {"variant": "convex", "components": [
        {"weight": 1.0, "measure": ["x"]}]}),
    lambda tmp: ["spectrum", "--potential", "const:nan"],
    lambda tmp: ["spectrum", "--potential", "const:inf"],
    lambda tmp: ["spectrum", "--potential", "bump:inf,0.1"]],
    ids=["negative-seed", "lipschitz-not-a-number", "atomic-without-word",
         "entry-not-an-object", "word-not-a-string",
         "markov-without-vertices", "markov-rows-missing",
         "component-not-an-object", "const-nan", "const-inf",
         "bump-level-inf"])
def test_malformed_outside_input_exits_4(tmp_path, capsys, argv):
    out = str(tmp_path / "r")
    assert run(["--out", out] + argv(tmp_path)) == 4
    err = capsys.readouterr().err
    assert "config error:" in err
    if "catalog" in err:
        # the malformed entry is named by its index
        assert "entry 1" in err


def test_inadmissible_catalog_word_stays_a_precondition(tmp_path, capsys):
    argv = _catalog_file(tmp_path, {"variant": "atomic", "word": "RR"})
    assert run(["--out", str(tmp_path / "r")] + argv) == 3
    assert "config error" not in capsys.readouterr().err


def test_measure_stats_table_schema_and_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run(["--out", out, "measure-stats",
                    "--potential", "coord:x"]) == 0
        outs.append(out)
    rows = read_csv(outs[0], "measure_stats")
    assert list(rows[0]) == ["measure_id", "entropy_map", "mean_roof",
                             "h_flow", "integral", "pressure",
                             "ball_fraction", "hypothesis_flag"]
    ids = [r["measure_id"] for r in rows]
    assert ids == sorted(ids)
    assert "delta_sigma" in ids
    ref_csv = open(os.path.join(outs[0], "measure_stats.csv"), "rb").read()
    ref_json = open(os.path.join(outs[0], "measure_stats.json"), "rb").read()
    for out in outs[1:]:
        assert open(os.path.join(out, "measure_stats.csv"), "rb").read() == ref_csv
        assert open(os.path.join(out, "measure_stats.json"), "rb").read() == ref_json


def test_spectrum_command(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "spectrum", "--potential", "coord:x"]) == 0
    payload = read_json(out, "spectrum")
    values = [e["pressure"] for e in payload["entries"]]
    assert values == sorted(values)
    assert payload["gap_size"] >= 0.0


def test_spectrum_command_on_a_deeper_catalog_horseshoe(tmp_path):
    # the catalog's depth-14 equilibrium states are integrated at the
    # default depth 12, below their horseshoe's, over the model's depth-12
    # cylinders; every float of the payload is pinned
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("catalog.horseshoes = 14:0.002:0,1\n")
    out = str(tmp_path / "r")
    assert run(["--config", str(cfg), "--out", out, "spectrum",
                "--potential", "coord:x"]) == 0
    payload = read_json(out, "spectrum")
    want = {
        "atomic:LLR": "-0x1.e79e79e79e79dp-2",
        "atomic:LLRLLRLR": "-0x1.6db6db6db6db7p-2",
        "atomic:LLRLR": "-0x1.249249249248bp-2",
        "atomic:LLRLRLR": "-0x1.a1f58d0fac68bp-3",
        "atomic:LLRLLRR": "-0x1.a1f58d0fac676p-3",
        "atomic:LLLRRLR": "-0x1.a1f58d0fac670p-3",
        "atomic:LRRLLRLRRRLL": "-0x1.a800000000000p-49",
        "atomic:LLRLLRRR": "-0x1.1000000000000p-50",
        "atomic:LLLRRLRR": "-0x1.a800000000000p-51",
        "atomic:LLRLRLRR": "-0x1.7000000000000p-51",
        "atomic:LLRRLRLR": "-0x1.4000000000000p-52",
        "atomic:LLRLRR": "-0x1.5555555555555p-54",
        "atomic:LLRRLR": "0x1.5555555555555p-56",
        "atomic:LR": "0x1.8000000000000p-52",
        "atomic:LLRR": "0x1.a000000000000p-52",
        "atomic:LLRLRRLR": "0x1.1800000000000p-51",
        "atomic:LLLRRR": "0x1.7555555555555p-51",
        "atomic:LLRRLRR": "0x1.a1f58d0fac678p-3",
        "atomic:LLRLRRR": "0x1.a1f58d0fac67dp-3",
        "atomic:LRLRLRR": "0x1.a1f58d0fac68fp-3",
        "atomic:LRLRR": "0x1.249249249248fp-2",
        "atomic:LRLRRLRR": "0x1.6db6db6db6dcep-2",
        "atomic:LRR": "0x1.e79e79e79e7a3p-2",
        "markov:d14:g0.002:t0": "0x1.0e03414b1fc1ap-1",
        "markov:d14:g0.002:t1": "0x1.54e6c18c07410p-1",
    }
    assert [(e["measure_id"], e["pressure"].hex())
            for e in payload["entries"]] == list(want.items())
    assert [v.hex() for v in payload["gap_interval"]] == \
        ["0x1.7555555555555p-51", "0x1.a1f58d0fac678p-3"]
    assert {key: payload[key].hex()
            for key in ("gap_size", "p_inf_est", "p_top_est")} == {
        "gap_size": "0x1.a1f58d0fac661p-3",
        "p_inf_est": "-0x1.e79e79e79e79dp-2",
        "p_top_est": "0x1.54e6c18c07410p-1"}


def test_realize_command_and_interiority_failure(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run(["--out", out, "realize", "--potential", "coord:x",
                "--target", "0.1", "--tol", "1e-3"]) == 0
    payload = read_json(out, "realize")
    assert payload["error"] <= 1e-3
    assert payload["measure"]["variant"] == "markov"
    assert run(["--out", str(tmp_path / "r2"), "realize", "--potential",
                "coord:x", "--target", "5.0", "--tol", "1e-3"]) == 3
    assert "precondition" in capsys.readouterr().err


def test_gap_demo_certifies(tmp_path):
    out = str(tmp_path / "r")
    assert run(["--out", out, "gap-demo", "--eta", "0.1",
                "--margin", "0.05"]) == 0
    report = read_json(out, "gap_report")
    assert report["certified"] is True
    assert report["delta_pressure"] == report["L"]
    flagged = [r for r in report["rows"] if not r["hypothesis_flag"]]
    assert len(flagged) >= 2  # demonstrators and the Dirac at least
    scan = read_json(out, "gap_spectrum")
    assert scan["gap_size"] >= 0.5 * report["L"] - 2e-2


def test_gap_demo_catalog_file_demonstrator_exemption(tmp_path, lmap):
    from geolorenz import AtomicMeasure, enumerate_periodic, find_periodic_point

    near = AtomicMeasure(lmap, find_periodic_point(lmap, "LLLRRR"))
    ok = AtomicMeasure(lmap, enumerate_periodic(lmap, 5)[-1])

    # flagged demonstrators are allowed through the build check
    doc = {"measures": [dict(ok.to_payload()),
                        dict(near.to_payload(), demonstrator=True)]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "r")
    assert run(["--out", out, "gap-demo", "--catalog", str(path)]) == 0
    report = read_json(out, "gap_report")
    assert near.id in [r["measure_id"] for r in report["rows"]
                       if not r["hypothesis_flag"]]

    # the same measure as a core member must abort the build
    doc = {"measures": [dict(ok.to_payload()), dict(near.to_payload())]}
    path2 = tmp_path / "cat2.json"
    path2.write_text(json.dumps(doc))
    assert run(["--out", str(tmp_path / "r2"), "gap-demo",
                "--catalog", str(path2)]) == 3


def test_gap_demo_eta_too_large_exits_3(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run(["--out", out, "gap-demo", "--eta", "0.45",
                "--margin", "0.05"]) == 3
    assert "precondition" in capsys.readouterr().err


def test_repro_entropy_suite(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run(["--out", out, "repro", "--suite", "entropy"]) == 0
    summary = read_json(out, "repro_summary")
    assert summary["passed"] is True
    assert all(c["passed"] for c in summary["checks"])
    stdout = capsys.readouterr().out
    assert "pass entropy/" in stdout


def test_repro_all_keeps_completed_suites_on_precondition_failure(
        tmp_path, capsys):
    # at beta = 1.95 the gap suite's eta violates the small-ball
    # hypothesis; the suites before it must still be written
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("model.beta = 1.95\n")
    out = str(tmp_path / "r")
    assert run(["--config", str(cfg), "--out", out, "repro",
                "--suite", "all"]) == 3
    for suite in ("entropy", "variational", "intermediate"):
        assert read_json(out, "repro_" + suite)["suite"] == suite
    assert not os.path.exists(os.path.join(out, "repro_gap.json"))
    summary = read_json(out, "repro_summary")
    assert summary["passed"] is False
    assert [e["suite"] for e in summary["errors"]] == ["gap"]
    assert "eta" in summary["errors"][0]["message"]
    assert {c["suite"] for c in summary["checks"]} == {
        "entropy", "variational", "intermediate"}
    assert "repro_summary.json" in read_json(out, "envelope")["payload_files"]
    assert "precondition violated in suite gap" in capsys.readouterr().err


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("GEOLORENZ_OUT", str(target))
    assert run(["validate"]) == 0
    assert (target / "validate.json").exists()
    # an explicit flag still wins over the environment
    flag_target = tmp_path / "flag_out"
    assert run(["--out", str(flag_target), "validate"]) == 0
    assert (flag_target / "validate.json").exists()


def test_csv_format_only(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("output.format = csv\n")
    out = str(tmp_path / "r")
    assert run(["--config", str(cfg), "--out", out, "orbits"]) == 0
    assert os.path.exists(os.path.join(out, "orbits.csv"))
    assert not os.path.exists(os.path.join(out, "orbits.json"))
    # the envelope is structural, not a payload, and is always written
    assert os.path.exists(os.path.join(out, "envelope.json"))

"""CLI subcommands: schemas, exit codes, determinism."""

import json

import pytest

from rowmotion.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_poset_chains(capsys):
    code, rep = run(["poset", "--chains", "2", "2"], capsys)
    assert code == 0
    assert rep["poset"]["chains"] == [2, 2]
    assert rep["poset"]["covers"] == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert rep["seed"] == 0


def test_poset_file_and_canonical_echo(tmp_path, capsys):
    src = tmp_path / "poset.json"
    src.write_text(json.dumps({
        "elements": ["bottom", "left", "right", "top"],
        "covers": [["bottom", "left"], ["bottom", "right"],
                   ["left", "top"], ["right", "top"], ["bottom", "top"]],
    }))
    code, rep = run(["poset", "--poset", str(src)], capsys)
    assert code == 0
    # redundant bottom-to-top pair reduced away in the canonical echo
    assert [[0, 1], [0, 2], [1, 3], [2, 3]] == rep["poset"]["covers"]
    assert rep["poset"]["names"] == ["bottom", "left", "right", "top"]


def test_poset_rejects_cycle(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"elements": [0, 1], "covers": [[0, 1], [1, 0]]}))
    assert main(["poset", "--poset", str(src)]) == 2


def test_orbits_report(capsys):
    code, rep = run(["orbits", "--chains", "2", "2", "--realm", "comb"], capsys)
    assert code == 0
    assert rep["antichain_count"] == 6
    assert [o["size"] for o in rep["orbits"]] == [4, 2]
    assert all(o["cardinality_avg"] == "1" for o in rep["orbits"])
    assert rep["orbits"][1]["fiber_avgs"]["positive"] == ["1/2", "1/2"]


def test_rowmotion_symbolic(capsys):
    code, rep = run(["rowmotion", "--chains", "2", "2", "--realm", "ratfun"], capsys)
    assert code == 0
    assert rep["period"] == 4
    assert len(rep["steps"]) == 5
    assert rep["steps"][0]["labels"] == {"0": "w", "1": "x", "2": "y", "3": "z"}
    assert rep["steps"][0]["st_word"] == ["w*y", "x*z", "C/(w*x)", "C/(y*z)"]


def test_rowmotion_with_labeling_file(tmp_path, capsys):
    labels = tmp_path / "g.json"
    labels.write_text(json.dumps({
        "realm": {"realm": "tropical", "c": "1"},
        "labels": {"1,1": "1/5", "2,1": "1/10", "1,2": "2/5", "2,2": "3/10"},
    }))
    code, rep = run(["rowmotion", "--chains", "2", "2", "--in", str(labels),
                     "--mode", "toggles"], capsys)
    assert code == 0
    assert rep["period"] == 4
    assert rep["steps"][1]["labels"] == {"0": "1/10", "1": "1/2", "2": "1/5", "3": "1/10"}


def test_rowmotion_matrix_realm(capsys):
    code, rep = run(["rowmotion", "--chains", "2", "2", "--realm", "matp",
                     "--d", "2", "--mode", "toggles", "--seed", "5"], capsys)
    assert code == 0
    assert rep["period"] == 4
    assert rep["realm"]["d"] == 2
    first = rep["steps"][0]["labels"]["0"]
    assert isinstance(first, list) and len(first) == 2


def test_stword_command(capsys):
    code, rep = run(["stword", "--chains", "2", "3", "--realm", "ratfun"], capsys)
    assert code == 0
    assert rep["st_word"] == ["u*w*y", "v*x*z", "C/(u*v)", "C/(w*x)", "C/(y*z)"]


def test_homomesy_ratfun(capsys):
    code, rep = run(["homomesy", "--realm", "ratfun", "--a", "2", "--b", "2"], capsys)
    assert code == 0
    assert all(f["pass"] for f in rep["fibers"])
    assert {f["expected"] for f in rep["fibers"]} == {"C^2"}


def test_homomesy_matp(capsys):
    code, rep = run(["homomesy", "--realm", "matp", "--a", "2", "--b", "3",
                     "--samples", "5", "--seed", "11"], capsys)
    assert code == 0
    assert rep["all_pass"] and rep["failures"] == []


def test_homomesy_tropical(capsys):
    code, rep = run(["homomesy", "--realm", "tropical", "--a", "2", "--b", "2",
                     "--samples", "10", "--seed", "3"], capsys)
    assert code == 0
    assert rep["report"]["all_exact"]


def test_fuzz_command_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "fuzz1.json"
    out2 = tmp_path / "fuzz2.json"
    assert main(["fuzz-nar", "--amax", "2", "--bmax", "2", "--dmax", "2",
                 "--trials", "5", "--seed", "21", "--out", str(out1)]) == 0
    assert main(["fuzz-nar", "--amax", "2", "--bmax", "2", "--dmax", "2",
                 "--trials", "5", "--seed", "21", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["all_pass"] and rep["seed"] == 21


def test_fixtures_command(capsys):
    code, rep = run(["fixtures", "--samples", "3"], capsys)
    assert code == 0
    assert rep["all_pass"]
    names = [f["name"] for f in rep["fixtures"]]
    assert "bar-2x3-orbit" in names and "nar-2x2-orbit" in names


def test_missing_poset_source_fails(capsys):
    assert main(["rowmotion", "--realm", "ratfun"]) == 2


def test_output_stable_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["orbits", "--chains", "2", "3", "--realm", "comb",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fuzz_refuses_composite_modulus(capsys):
    assert main(["fuzz-nar", "--p", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: p = 4 is not prime\n"


@pytest.mark.parametrize("p", [5, 2**61 - 1, 2**64 - 59])
def test_fuzz_accepts_prime_modulus(p, capsys):
    code, rep = run(["fuzz-nar", "--amax", "1", "--bmax", "2", "--dmax", "2",
                     "--trials", "3", "--p", str(p)], capsys)
    assert code in (0, 1)
    assert rep["grid"]["p"] == p
    assert all(c["trials"] == 3 for c in rep["cells"])

"""CLI subcommands: schemas, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rowmotion
from rowmotion import cli, fixtures, stword
from rowmotion.cli import _read_json, main
from rowmotion.dynamics import antichain_rowmotion, iterate
from rowmotion.errors import SingularValue
from rowmotion.labeling import Labeling
from rowmotion.poset import product_of_chains
from rowmotion.polynomials import MAX_DEGREE, Polynomial
from rowmotion.ratfun import RationalFunction
from rowmotion.realms import (FUZZ_PRIME, FractionMatrixRealm, RationalFunctionRealm,
                              TropicalRealm)
from rowmotion.sampling import sample_generic_labeling


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


@pytest.mark.parametrize("chains,d,seed", [((3, 3), 2, 12), ((3, 4), 1, 2)])
def test_rowmotion_matp_resamples_labelings_singular_after_step_1(chains, d, seed, capsys):
    """At p = 101 the first draw of these runs passes its first step and
    meets a singular value at step 2; the next nonsingular draw is iterated
    instead of failing the run."""
    code, rep = run(["rowmotion", "--chains", *map(str, chains), "--realm", "matp",
                     "--d", str(d), "--p", "101", "--seed", str(seed)], capsys)
    assert code == 0
    assert rep["period"] == sum(chains)


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


def test_homomesy_matp_resamples_singular_windows(capsys):
    """At p = 101 some sampled windows meet a singular value after their
    first step; those samples are drawn again instead of failing the job."""
    code, rep = run(["homomesy", "--realm", "matp", "--a", "3", "--b", "3",
                     "--samples", "100", "--p", "101", "--seed", "2"], capsys)
    assert code == 0
    assert rep["all_pass"] and rep["failures"] == []


def test_homomesy_tropical(capsys):
    code, rep = run(["homomesy", "--realm", "tropical", "--a", "2", "--b", "2",
                     "--samples", "10", "--seed", "3"], capsys)
    assert code == 0
    assert rep["report"]["all_exact"]


@pytest.mark.parametrize("args,digest", [
    (["--realm", "ratfun", "--a", "2", "--b", "3"],
     "9b8cf7ab4ecdb43849c73c6be39a7ccc23f1f6725da60274534183ea90f7814f"),
    (["--realm", "ratfun", "--a", "3", "--b", "2"],
     "03771b1b4612e63a8414e01209e0f7c321c046dded5e4c4ffd211170a32fea17"),
    (["--realm", "matp", "--a", "3", "--b", "4", "--samples", "20", "--seed", "1"],
     "0bc51db230984d0cf152b97a48397974e99dce7403da63ed068feb9e1281b52f"),
    (["--realm", "tropical", "--a", "3", "--b", "3", "--samples", "10", "--seed", "1"],
     "1634266f3c36a079b5ba27ca867d962bb49d4a3e77b7def2f85a4a6cd187cbf5"),
    (["--realm", "ratfun", "--a", "2", "--b", "4"],
     "4f84d99f90c7ede79308c118e2eb756f3e1b42494402f7305afb1452e8c567fe"),
    (["--realm", "ratfun", "--a", "4", "--b", "2"],
     "867b5ea5043e99d1ce6e81e7b17234cf285c00a118406da9bbbc685253fb4ca9"),
])
def test_homomesy_reports_pinned(args, digest, capsys):
    """The homomesy reports are pinned byte for byte, however the orbit
    window behind them is computed."""
    assert main(["homomesy"] + args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["stword", "--chains", "2", "3", "--realm", "matp", "--d", "2", "--seed", "3"],
     "159ee5f1b45c2660cf56d8a2100d3f01aca6c2eceb9fa50a1a3cbfb328522e7a"),
    (["stword", "--chains", "3", "2"],
     "304e1d311cae8d90e696ea51d235934be6a99c4a6cbedb753788afc9f969e3c3"),
    (["stword", "--chains", "2", "3", "--realm", "tropical", "--seed", "4"],
     "7918107ae9e714432c6d120604f94f14ae502194a84a533f8b6382d995193e91"),
    (["rowmotion", "--chains", "2", "3", "--realm", "matp", "--d", "2", "--seed", "3"],
     "e3586296560804da6298f4ccfa5c18c60a66c704495e667358145cdf45d88a42"),
    (["rowmotion", "--chains", "2", "2"],
     "f60a0932e012e93a7d08ee928746c70e3afbdbbddfe9b435685fd2bcdb863b84"),
    (["fixtures", "--samples", "5"],
     "ebc012aa7c344272f5a6aa3c6ee8ee652d4a5df26d0637bae4c2d711361a0661"),
    (["homomesy", "--realm", "tropical", "--a", "4", "--b", "5", "--samples", "20",
      "--seed", "9"],
     "1da5831dc84059fcc8b6b53f92bd770b6a9fc7fba389133de1f83622cedf7080"),
    (["homomesy", "--realm", "tropical", "--a", "2", "--b", "5", "--samples", "30",
      "--seed", "7"],
     "8967035999290eca94a809e48d5ca388add3193e9aaacdfc4cbe48ebc193292c"),
    (["rowmotion", "--chains", "2", "3", "--realm", "tropical", "--c", "3/2"],
     "d8db23f3c7e8361dab69a77c8420f65f2a1ec55b579a83cd6f6388c8404ddcbb"),
    (["rowmotion", "--chains", "2", "3", "--realm", "tropical", "--c", "2", "--seed", "5"],
     "54f057bbdb3ff24c2eb5149c02fa30064a0b7b2f419890de016f2ddf22d6cbd6"),
    (["rowmotion", "--chains", "3", "2", "--realm", "tropical", "--mode", "toggles",
      "--seed", "1"],
     "781e1e592b86c8c0881fdd1c05e0efecce381f4a506b7d0c77e4fa89bb9695da"),
    (["rowmotion", "--chains", "4", "5", "--realm", "matp", "--d", "3", "--mode", "toggles",
      "--seed", "5"],
     "ea422e0440b34e9e39dcf34a714d80adc29aba162c4a86f652399e513989401b"),
    (["rowmotion", "--chains", "4", "5", "--realm", "matp", "--d", "3", "--mode", "transfer",
      "--seed", "5"],
     "58d0fc2aea13eedc7370a69591c53a18b554606808c6c4c8d7c25be78a7b54cf"),
    # the first draw is singular at step 1, so the second one is reported
    (["rowmotion", "--chains", "3", "4", "--realm", "matp", "--d", "1", "--p", "101",
      "--seed", "0"],
     "f49c45aacf15ff60e011e3451af1aca61109d008c0b296cf90e16471b0017159"),
    (["rowmotion", "--chains", "2", "3", "--realm", "matp", "--d", "4", "--mode", "toggles",
      "--seed", "4"],
     "0dbbc100fd57acbe5a911ec35d83b48d2fce30fbae1a54ff1a1f6f8a4e0c6c0f"),
    (["rowmotion", "--chains", "2", "3", "--realm", "matq", "--d", "2", "--seed", "1"],
     "c0344fcb7dda4ce95befc2c039283040f47100922589f5ca7d35a312cdf8f135"),
    (["homomesy", "--realm", "tropical", "--a", "8", "--b", "8", "--samples", "5",
      "--seed", "3"],
     "fdacce0092a0c67dfcffb9b77967bb083375af7e7b9213144397a42e6d990f10"),
    # [1]x[3] is one chain: 16 of the 20 samples sum past 60 and are divided by
    # that sum, the other 4 by 60
    (["homomesy", "--realm", "tropical", "--a", "1", "--b", "3", "--samples", "20",
      "--seed", "2"],
     "5195f652db3cc0cdf1dba29a915411f2ea14fa0d93587965bc9b4fe6522197b6"),
    # a full symbolic orbit: step 6 returns to the starting labeling
    (["rowmotion", "--chains", "2", "4", "--realm", "ratfun"],
     "aedde08bbe9e490957b60c0c2c7704d91fbcbeccb72df30c6389d3348bf8e97c"),
    (["rowmotion", "--chains", "2", "3", "--realm", "ratfun", "--mode", "toggles"],
     "41de88ad3ff8020c6654ab280d78f63f7050fd5b7ea13d28cf18c084118b1941"),
    (["stword", "--chains", "2", "4"],
     "e43dfbd0f495657f40b3673983d4aea94af62a3d2ee8a5a8bb9bb35a7b434067"),
    # step 5 on [3]x[3] has labels of 2,316 terms
    (["rowmotion", "--chains", "3", "3", "--realm", "ratfun", "--steps", "5"],
     "4a76fccc400eb221ac462416ac8e309f0f1a49fdf2b0e19949b8f48b3ceb9fd0"),
])
def test_word_orbit_and_fixture_reports_pinned(args, digest, capsys):
    """The labeling and fiber-word JSON encoding, the fixture details and
    the tropical means are pinned byte for byte (stdout only)."""
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,steps", [
    (["--realm", "ratfun", "--a", "2", "--b", "3"], 4),
    (["--realm", "matp", "--a", "2", "--b", "3", "--samples", "7"], 7 * 4),
    (["--realm", "matp", "--a", "3", "--b", "3", "--samples", "3"], 3 * 5),
])
def test_homomesy_steps_once_per_window(args, steps, monkeypatch, capsys):
    """A homomesy job takes a+b-1 rowmotion steps per labeling, shared by
    all a+b fibers: no fiber walks its own orbit and no closing step is
    computed."""
    calls = []
    step = stword.antichain_rowmotion

    def counted(*a, **kw):
        calls.append(None)
        return step(*a, **kw)

    monkeypatch.setattr(stword, "antichain_rowmotion", counted)
    assert main(["homomesy"] + args) == 0
    assert len(calls) == steps


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


SAMPLED_D1_SEED1 = {
    "matq": {"0": [["10/7"]], "1": [["17/3"]], "2": [["-11/5"]], "3": [["-27/11"]]},
    "matp": {"0": [[763905515218938353]], "1": [[885719387998914177]],
             "2": [[2251712896770211161]], "3": [[1821587163162428431]]},
}


@pytest.mark.parametrize("c_args,c", [
    (["--realm", "matq"], "20/47"), (["--realm", "matq", "--c", "5"], "5"),
    (["--realm", "matq", "--c", "7/2"], "7/2"),
    (["--realm", "matp"], 1673073484607122568), (["--realm", "matp", "--c", "5"], 5),
])
def test_sampled_matq_rowmotion_reports_its_central_constant(c_args, c, capsys):
    """An explicit --c is the sampled matq or matp realm's constant; without
    it the constant is drawn.  The drawn entries are the same either way."""
    code, rep = run(["rowmotion", "--chains", "2", "2", "--d", "1", "--seed", "1"] + c_args,
                    capsys)
    assert code == 0
    assert rep["realm"]["c"] == c
    assert rep["steps"][0]["labels"] == SAMPLED_D1_SEED1[c_args[1]]


def test_sampled_stword_is_redrawn_only_by_its_own_singular_values(capsys):
    """stword redraws a sampled matrix labeling only when its fiber word
    meets a singular value.  At p = 5 the first draw of seed 10 has an
    invertible word but a singular first rowmotion step, which stword never
    takes, so the first draw is reported."""
    args = ["stword", "--chains", "2", "2", "--realm", "matp", "--d", "1", "--p", "5",
            "--seed", "10"]
    code, rep = run(args, capsys)
    assert code == 0
    first = sample_generic_labeling(product_of_chains(2, 2), {"realm": "matp", "p": 5, "d": 1},
                                    10, lambda g: g)
    assert {"realm": rep["realm"], "labels": rep["labels"]} == first.to_json()
    with pytest.raises(SingularValue):
        antichain_rowmotion(product_of_chains(2, 2), first)
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "94190eb4892f1dbafbe566000158ea9ae53358a9a34e3284368c9dfad7bfcee0")


@pytest.mark.parametrize("args,message", [
    (["rowmotion", "--chains", "2", "2", "--realm", "ratfun", "--c", "5"],
     "--c does not apply to --realm ratfun, whose constant is the variable C"),
    (["stword", "--chains", "2", "2", "--c", "5"],
     "--c does not apply to --realm ratfun, whose constant is the variable C"),
    (["rowmotion", "--chains", "2", "2", "--realm", "tropical", "--in", "IN", "--c", "7"],
     "--c applies to a sampled labeling; with --in the realm block gives the constant"),
    (["stword", "--chains", "2", "2", "--realm", "tropical", "--in", "IN", "--c", "7"],
     "--c applies to a sampled labeling; with --in the realm block gives the constant"),
])
def test_c_where_it_cannot_apply_exits_2(args, message, tmp_path, capsys):
    """--c is refused, not ignored, for the ratfun realm and with --in."""
    src = tmp_path / "g.json"
    src.write_text(json.dumps(_labels({"realm": "tropical", "c": "2"}, "1", "1")))
    code, err = _refused([str(src) if a == "IN" else a for a in args], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["rowmotion", "stword"])
@pytest.mark.parametrize("flags,message", [
    (["--realm", "matp"], "--realm applies to a sampled labeling; with --in the realm block "
     "gives the realm"),
    (["--realm", "tropical"], "--realm applies to a sampled labeling; with --in the realm "
     "block gives the realm"),
    (["--p", "7"], "--p applies to a sampled labeling; with --in the realm block gives the "
     "prime"),
    (["--d", "3"], "--d applies to a sampled labeling; with --in the realm block gives the "
     "dimension"),
    (["--realm", "matp", "--d", "3", "--p", "7"], "--realm applies to a "
     "sampled labeling; with --in the realm block gives the realm"),
], ids=["realm-other", "realm-same", "p", "d", "all"])
def test_realm_flags_with_in_exit_2(command, flags, message, tmp_path, capsys):
    """--realm, --p and --d are refused with --in, as --c is, not ignored
    in favour of the file's realm block; even a --realm that matches it."""
    src = tmp_path / "g.json"
    src.write_text(json.dumps(_labels({"realm": "tropical"}, "1", "1")))
    code, err = _refused([command, "--chains", "2", "2", "--in", str(src), *flags], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_realm_flags_default_when_not_given(monkeypatch, capsys):
    """Without --realm, --p and --d a sampled labeling is ratfun, a matp
    one has p = 2^61 - 1 and d = 2, and homomesy --realm matp samples at
    p = 2^61 - 1."""
    code, rep = run(["rowmotion", "--chains", "2", "2", "--steps", "1"], capsys)
    assert code == 0 and rep["realm"]["realm"] == "ratfun"
    code, rep = run(["rowmotion", "--chains", "2", "2", "--realm", "matp", "--steps", "1"],
                    capsys)
    assert code == 0 and (rep["realm"]["p"], rep["realm"]["d"]) == (FUZZ_PRIME, 2)
    code, rep = run(["stword", "--chains", "2", "2", "--realm", "matq"], capsys)
    assert code == 0 and rep["realm"]["d"] == 2
    configs = []
    draw = cli.sample_generic_labeling
    monkeypatch.setattr(cli, "sample_generic_labeling",
                        lambda poset, cfg, *a: configs.append(cfg) or draw(poset, cfg, *a))
    assert main(["homomesy", "--realm", "matp", "--a", "2", "--b", "2", "--samples", "2"]) == 0
    assert [c["p"] for c in configs] == [FUZZ_PRIME, FUZZ_PRIME]


@pytest.mark.parametrize("realm", ["tropical", "ratfun"])
@pytest.mark.parametrize("p", ["4", "101"])
def test_homomesy_p_for_another_realm_exits_2(realm, p, capsys):
    """homomesy refuses a --p, prime or not, for a realm that has no prime,
    as it refuses a composite one for matp."""
    code, err = _refused(["homomesy", "--realm", realm, "--a", "2", "--b", "2",
                          "--samples", "2", "--p", p], capsys)
    assert code == 2
    assert err == f"error: --p does not apply to --realm {realm}; it is the matp prime\n"
    code, err = _refused(["homomesy", "--realm", "matp", "--a", "2", "--b", "2",
                          "--samples", "2", "--p", "4"], capsys)
    assert code == 2 and err == "error: p = 4 is not prime\n"


def _refused(args, capsys):
    """Exit code and stderr of a refused run; nothing reaches stdout."""
    code = main(args)
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, err = _refused(["poset", "--poset", str(missing)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, err = _refused(["poset", "--chains", "2", "2",
                          "--out", str(tmp_path / "no-dir" / "out.json")], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def _labels(realm, first, rest):
    """A [2]x[2] labeling: ``first`` at element 0, ``rest`` elsewhere."""
    return {"realm": realm, "labels": {"0": first, "1": rest, "2": rest, "3": rest}}


I2 = [[1, 0], [0, 1]]
MATP2 = {"realm": "matp", "p": 101, "d": 2}
MATQ2 = {"realm": "matq", "d": 2}
MATP1 = {"realm": "matp", "p": 101, "d": 1}


S2 = [[1, 2], [2, 4]]  # singular: row 2 is twice row 1
I4 = [[int(i == j) for j in range(4)] for i in range(4)]
S4 = [["1", "2", "3", "4"], ["2", "4", "6", "8"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]


@pytest.mark.parametrize("command", ["rowmotion", "stword"])
@pytest.mark.parametrize("realm,singular,invertible", [
    ({"realm": "matp", "p": 5, "d": 2}, S2, I2),
    (MATQ2 | {"d": 4}, S4, I4),
], ids=["matp-d2", "matq-d4"])
@pytest.mark.parametrize("at", [0, 3])
def test_singular_label_in_the_input_exits_2(command, realm, singular, invertible, at,
                                             tmp_path, capsys):
    """One singular label in a given labeling makes its fiber word
    singular: the run exits 2 with the single inverse's message, naming no
    element, wherever the label sits."""
    src = tmp_path / "g.json"
    labels = {str(x): singular if x == at else invertible for x in range(4)}
    src.write_text(json.dumps({"realm": realm, "labels": labels}))
    code, err = _refused([command, "--chains", "2", "2", "--in", str(src)], capsys)
    assert code == 2
    d = realm["d"]
    assert err == f"error: singular {d}x{d} matrix\n"


class RawFile(str):
    """Input file text written as is, not JSON-encoded, and the option
    that reads it."""

    def __new__(cls, text, flag):
        self = super().__new__(cls, text)
        self.flag = flag
        return self


NESTED = "[" * 100_000


@pytest.mark.parametrize("payload,message", [
    ({"realm": {"realm": "tropical"}}, "labeling has no 'labels' key"),
    ({"labels": {"0": "1"}}, "labeling has no 'realm' key"),
    ({"realm": {"c": "1"}, "labels": {}}, "realm config has no 'realm' key"),
    ({"realm": {"realm": "matp", "d": 2}, "labels": {}}, "realm config has no 'p' key"),
    ({"realm": {"realm": "ratfun"}, "labels": {}}, "realm config has no 'variables' key"),
    ([1], "labeling must be a JSON object"),
    ({"realm": "matp", "labels": {}}, "realm config must be a JSON object"),
    (_labels(MATQ2, [["1", "2"], ["3", "4", "5"]], I2),
     "label 0: a matq label must be 2 lists of 2 entries"),
    (_labels(MATP2, 5, I2), "label 0: a matp label must be 2 lists of 2 entries"),
    (_labels(MATP2, [[1, 2], [3]], I2), "label 0: a matp label must be 2 lists of 2 entries"),
    pytest.param(_labels({"realm": "tropical"}, [1], "1"),
                 "label 0: a tropical label must be a rational number, got [1]",
                 id="tropical-list"),
    (_labels({"realm": "ratfun", "variables": ["w", "x", "y", "z"]}, "q", "x"),
     "label 0: 'q' is not a declared variable (C, w, x, y, z)"),
    ({"realm": {"realm": "tropical"}, "labels": ["1", "1", "1", "1"]},
     "labeling 'labels' must be a JSON object keyed by element"),
    (_labels(MATP1, [[1.5]], [[2]]), "label 0: a matp entry must be an integer, got 1.5"),
    (_labels(MATP1, [[True]], [[2]]), "label 0: a matp entry must be an integer, got true"),
    (_labels({"realm": "matp", "p": [101], "d": 1}, [[1]], [[2]]),
     "realm config 'p' must be an integer, got [101]"),
    (_labels({"realm": "tropical", "c": "1/0"}, "1", "1"),
     "realm config 'c' must be a rational number, got \"1/0\""),
    (_labels({"realm": "matq", "d": 2.0}, I2, I2),
     "realm config 'd' must be an integer, got 2.0"),
    ({"realm": {"realm": "tropical"},
      "labels": {"0": "1", "1,1": "2", "1": "1", "2": "1", "3": "1"}},
     "label 1,1: element 0 is already labeled by key 0"),
    (_labels({"realm": "tropical"}, True, "1"),
     "label 0: a tropical label must be a rational number, got true"),
    (_labels(MATQ2, [[True, "0"], ["0", "1"]], I2),
     "label 0: a matq entry must be a rational number, got true"),
    pytest.param(_labels({"realm": "tropical"}, float("inf"), "1"),
                 "label 0: a tropical label must be a rational number, got Infinity",
                 id="tropical-infinity"),
    pytest.param(RawFile(NESTED, "--in"), "JSON input is nested too deeply", id="nested-in"),
    pytest.param(RawFile(NESTED, "--poset"), "JSON input is nested too deeply",
                 id="nested-poset"),
    pytest.param(_labels({"realm": "ratfun", "variables": [1, 2, 3, 4]}, "w", "x"),
                 "a ratfun variable must be a nonempty string, got 1", id="variables-ints"),
    pytest.param(_labels({"realm": "ratfun", "variables": "wxyz"}, "w", "x"),
                 'realm config \'variables\' must be a list of names, got "wxyz"',
                 id="variables-string"),
    pytest.param(_labels({"realm": "ratfun", "variables": ["C", "a", "a", "d"]}, "a", "d"),
                 "ratfun variable 'C' is the constant's name", id="variables-constant"),
    pytest.param(_labels({"realm": "ratfun", "variables": ["a", "a", "c", "d"]}, "a", "d"),
                 "ratfun variable 'a' is declared twice", id="variables-repeated"),
    pytest.param(_labels({"realm": "ratfun", "variables": ["w", ""]}, "w", "w"),
                 'a ratfun variable must be a nonempty string, got ""', id="variables-empty"),
    pytest.param(_labels({"realm": "ratfun", "variables": None}, "w", "w"),
                 "realm config 'variables' must be a list of names, got null",
                 id="variables-null"),
    pytest.param(_labels({"realm": "tropical"}, "1e5000", "1"),
                 "rowmotion step 0: label 0: a tropical label has more than 4300 digits, "
                 "the most Python prints in an integer", id="label-past-print-limit"),
    pytest.param(_labels({"realm": "ratfun", "variables": ["x*y", "x", "y", "z"]}, "x", "y"),
                 "ratfun variable 'x*y' is not an identifier", id="variables-not-identifiers"),
    pytest.param(_labels({"realm": "tropical"}, float("nan"), "1"),
                 "label 0: a tropical label must be a rational number, got NaN",
                 id="tropical-nan"),
    pytest.param(_labels(MATQ2, [[float("-inf"), "0"], ["0", "1"]], I2),
                 "label 0: a matq entry must be a rational number, got -Infinity",
                 id="matq-minus-infinity"),
    pytest.param(RawFile('{"realm": {"realm": "matp", "p": 101, "d": 1}, "labels": '
                         '{"0": [[1e2]], "1": [[2]], "2": [[2]], "3": [[2]]}}', "--in"),
                 "label 0: a matp entry must be an integer, got 1e2", id="matp-exponent-literal"),
    pytest.param(_labels({"realm": "tropical", "C": "3/2"}, "1", "1"),
                 "realm config 'C' is not read by realm tropical, which reads realm, c",
                 id="tropical-key-C"),
    pytest.param(_labels({"realm": "tropical", "d": 2}, "1", "1"),
                 "realm config 'd' is not read by realm tropical, which reads realm, c",
                 id="tropical-key-d"),
    pytest.param(_labels({**MATQ2, "p": 101}, I2, I2),
                 "realm config 'p' is not read by realm matq, which reads realm, d, c",
                 id="matq-key-p"),
    pytest.param(_labels({**MATP1, "dim": 2}, [[1]], [[2]]),
                 "realm config 'dim' is not read by realm matp, which reads realm, p, d, c",
                 id="matp-key-dim"),
    pytest.param(_labels({"realm": "ratfun", "variables": ["w", "x", "y", "z"], "c": "2"},
                         "w", "x"),
                 "realm config 'c' is not read by realm ratfun, which reads realm, variables",
                 id="ratfun-key-c"),
    pytest.param(RawFile('{"elements": [0, 1, 2], "cover": [[0, 1], [1, 2]]}', "--poset"),
                 "poset key 'cover' is not one of chains, coords, elements, covers, names",
                 id="poset-key-cover"),
])
def test_malformed_labeling_exits_2(payload, message, tmp_path, capsys):
    src = tmp_path / "g.json"
    raw = isinstance(payload, RawFile)
    src.write_text(payload if raw else json.dumps(payload))
    flag = payload.flag if raw else "--in"
    code, err = _refused(["rowmotion", "--chains", "2", "2", flag, str(src)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("payload,flags,message", [
    (_labels({"realm": "tropical"}, "1e100000000", "1"), [],
     'label 0: a tropical label has a decimal exponent past 10000, got "1e100000000"'),
    (_labels(MATQ2, [["1", "0"], ["0", "-1E-100000000"]], I2), [],
     'label 0: a matq entry has a decimal exponent past 10000, got "-1E-100000000"'),
    (None, ["--realm", "tropical", "--c", "2.5e1_000_000"],
     'realm config \'c\' has a decimal exponent past 10000, got "2.5e1_000_000"'),
    ('{"realm": {"realm": "tropical"}, "labels": {"0": 1e100000000, "1": 1, "2": 1, "3": 1}}',
     [], 'label 0: a tropical label has a decimal exponent past 10000, got 1e100000000'),
    ('{"realm": {"realm": "matq", "d": 1}, "labels": {"0": [[-1E-100000000]], "1": [[2]], '
     '"2": [[2]], "3": [[2]]}}', [],
     'label 0: a matq entry has a decimal exponent past 10000, got -1E-100000000'),
    ('{"realm": {"realm": "tropical", "c": 2.5e1000000}, "labels": {"0": 1, "1": 1, "2": 1, '
     '"3": 1}}', [], 'realm config \'c\' has a decimal exponent past 10000, got 2.5e1000000'),
])
def test_huge_decimal_exponent_exits_2_at_once(payload, flags, message, tmp_path, capsys):
    """A rational read from a decimal string or a JSON number literal (text
    here) would build 10**exponent; past the bound it is refused, naming
    the field, before any time is spent.  The refusal shows the number as
    the input wrote it: a string quoted, a number literal bare."""
    if payload is not None:
        src = tmp_path / "g.json"
        src.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        flags = ["--in", str(src)]
    start = time.monotonic()
    code, err = _refused(["rowmotion", "--chains", "2", "2", *flags], capsys)
    assert time.monotonic() - start < 1
    assert code == 2
    assert err == f"error: {message}\n"


def _raw_labels(realm, first, rest):
    """``_labels`` as JSON text, for numbers that ``json.dumps`` cannot write."""
    return (f'{{"realm": {realm}, "labels": {{"0": {first}, "1": {rest}, "2": {rest}, '
            f'"3": {rest}}}}}')


LONG = "1" * 5000
TROPICAL = '{"realm": "tropical"}'
MATP1_TEXT = '{"realm": "matp", "p": 101, "d": 1}'
MATQ1_TEXT = '{"realm": "matq", "d": 1}'


@pytest.mark.parametrize("text,message", [
    (_raw_labels(TROPICAL, LONG, '"2"'), "label 0: a tropical label"),
    (_raw_labels(TROPICAL, f'"{LONG}"', '"2"'), "label 0: a tropical label"),
    (_raw_labels(MATP1_TEXT, f"[[{LONG}]]", "[[2]]"), "label 0: a matp entry"),
    (_raw_labels(MATP1_TEXT, f'[["{LONG[:3000]}_{LONG[:3000]}"]]', "[[2]]"),
     "label 0: a matp entry"),
    (_raw_labels(f'{{"realm": "matp", "p": {LONG}, "d": 1}}', "[[1]]", "[[2]]"),
     "realm config 'p'"),
    (_raw_labels(MATQ1_TEXT, f'[["{LONG}"]]', "[[2]]"), "label 0: a matq entry"),
    (_raw_labels(MATQ1_TEXT, f'[["1/{LONG}"]]', "[[2]]"), "label 0: a matq entry"),
    (_raw_labels(TROPICAL, f"{LONG}.5", '"2"'), "label 0: a tropical label"),
], ids=["tropical-literal", "tropical-string", "matp-literal", "matp-string",
        "p-literal", "matq-string", "matq-denominator", "tropical-float-literal"])
def test_number_past_the_digit_limit_exits_2(text, message, tmp_path, capsys):
    """A JSON integer literal or a number string with more digits than
    Python reads into an integer is refused by the field that holds it,
    naming the limit and not printing the digits."""
    src = tmp_path / "g.json"
    src.write_text(text)
    code, err = _refused(["rowmotion", "--chains", "2", "2", "--in", str(src), "--steps", "1"],
                         capsys)
    assert code == 2
    assert err == (f"error: {message} has more than 4300 digits, the most Python reads "
                   f"in an integer\n")


@pytest.mark.parametrize("text,first", [
    (_raw_labels(TROPICAL, "0.1", '"1"'), "1/10"),
    (_raw_labels(TROPICAL, "-2.50E-1", '"1"'), "-1/4"),
    (_raw_labels(TROPICAL, "1e999", '"1"'), str(10**999)),
    (_raw_labels(MATQ1_TEXT, "[[0.1]]", "[[2]]"), [["1/10"]]),
], ids=["tropical", "tropical-exponent", "tropical-1e999", "matq"])
def test_number_literal_is_read_exactly(text, first, tmp_path, capsys):
    """A JSON number literal with a fraction or an exponent is read from
    its text, as a number string is: 0.1 is 1/10, not the nearest binary
    float, and 1e999 is 10**999, not infinity."""
    src = tmp_path / "g.json"
    src.write_text(text)
    code, rep = run(["rowmotion", "--chains", "2", "2", "--in", str(src), "--steps", "1"],
                    capsys)
    assert code == 0
    assert rep["steps"][0]["labels"]["0"] == first


def test_realm_block_c_literal_reads_like_the_option(tmp_path, capsys):
    """A realm block's "c": 0.3 is 3/10, as --c 0.3 is."""
    src = tmp_path / "g.json"
    src.write_text(_raw_labels('{"realm": "tropical", "c": 0.3}', '"0"', '"1"'))
    code, rep = run(["rowmotion", "--chains", "2", "2", "--in", str(src), "--steps", "1"],
                    capsys)
    assert code == 0 and rep["realm"]["c"] == "3/10"
    code, rep = run(["rowmotion", "--chains", "2", "2", "--realm", "tropical", "--c", "0.3",
                     "--steps", "1"], capsys)
    assert code == 0 and rep["realm"]["c"] == "3/10"


@pytest.mark.parametrize("args", [
    ["rowmotion", "--chains", "2", "2", "--realm", "matp", "--p", LONG],
    ["rowmotion", "--chains", "2", "2", "--steps", LONG],
    ["homomesy", "--realm", "matp", "--a", "2", "--b", "2", "--p", LONG],
    ["fuzz-nar", "--seed", LONG],
    ["stword", "--chains", "2", LONG],
], ids=["rowmotion-p", "steps", "homomesy-p", "seed", "chains"])
def test_integer_option_past_the_digit_limit_exits_2(args, capsys):
    """An integer option with more digits than Python reads into an int is
    refused with one line that names the option and the limit and echoes
    no digit (argparse would print its usage and all 5,000 digits)."""
    code, err = _refused(args, capsys)
    flag = next(a for a in reversed(args) if a.startswith("--"))
    assert code == 2
    assert err == (f"error: {flag} has more than 4300 digits, the most Python reads "
                   f"in an integer\n")
    assert len(err) < 200


def test_modulus_past_the_certified_limit_names_the_limit(capsys):
    """A --p that reads but is too large to certify as prime is refused
    naming the limit, not its own 4,300 digits."""
    code, err = _refused(["rowmotion", "--chains", "2", "2", "--realm", "matp", "--p",
                          "1" * 4300], capsys)
    assert code == 2
    assert err == "error: p is too large to certify as prime (limit 318665857834031151167461)\n"


def test_integer_option_that_is_not_a_number_is_an_argparse_error(capsys):
    """Below the digit limit a malformed integer option is argparse's own
    usage error, as it was with ``type=int``."""
    with pytest.raises(SystemExit) as exc:
        main(["rowmotion", "--chains", "2", "2", "--p", "x"])
    assert exc.value.code == 2
    assert "error: argument --p: invalid int value: 'x'\n" in capsys.readouterr().err


def test_number_at_the_digit_limit_is_read(tmp_path, capsys):
    """4300 digits, Python's limit, still read: as a matp entry literal or
    string in an input file, and as a tropical label or matq entry."""
    digits = "1" * 4299 + "2"
    src = tmp_path / "g.json"
    src.write_text(_raw_labels(MATP1_TEXT, f"[[{digits}]]", f'[["{digits}"]]'))
    code, rep = run(["rowmotion", "--chains", "2", "2", "--in", str(src), "--steps", "1"], capsys)
    assert code == 0
    assert rep["steps"][0]["labels"]["0"] == [[int(digits) % 101]]
    assert _read_json(str(src))["labels"]["0"] == [[int(digits)]]
    assert TropicalRealm().value_from_json(digits) == int(digits)
    assert FractionMatrixRealm(1).value_from_json([[f"1/{digits}"]]) == (Fraction(1, int(digits)),)


def test_matq_entry_past_the_print_limit_exits_2(tmp_path, capsys):
    """On a poset with no periodicity matq entries grow without bound; the
    first step with an entry Python cannot print is refused, naming the
    step, the label and the limit, and one step fewer prints."""
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"elements": [0, 1, 2, 3, 4],
                               "covers": [[4, 2], [2, 0], [3, 0], [3, 1]]}))
    args = ["rowmotion", "--poset", str(src), "--realm", "matq", "--d", "2", "--seed", "4"]
    for mode in ("transfer", "toggles"):
        code, err = _refused([*args, "--mode", mode, "--steps", "14"], capsys)
        assert code == 2
        assert err == ("error: rowmotion step 14: label 0: a matq entry has more than 4300 "
                       "digits, the most Python prints in an integer; a lower --steps "
                       "stops before it\n")
    code, rep = run([*args, "--steps", "13"], capsys)
    assert code == 0 and len(rep["steps"]) == 14


def test_symbolic_degree_past_the_field_limit_exits_2(monkeypatch, capsys):
    """Labels of degree just over half the packed-monomial limit make the
    first product overflow; the run is refused, not wrapped around."""
    high = MAX_DEGREE // 2 + 1

    def variable(realm, name):
        exps = [0] * realm.nvars
        exps[realm.variable_names.index(name)] = high
        return RationalFunction.from_polynomial(Polynomial(realm.nvars, {tuple(exps): 1}))

    monkeypatch.setattr(RationalFunctionRealm, "variable", variable)
    code, err = _refused(["rowmotion", "--chains", "2", "2", "--realm", "ratfun"], capsys)
    assert code == 2
    assert err == (f"error: product of degree {2 * high} exceeds the monomial limit "
                   f"{MAX_DEGREE}\n")


def test_output_stable_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["orbits", "--chains", "2", "3", "--realm", "comb",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["poset", "--chains", "2", "3"],
    ["orbits", "--chains", "2", "3"],
    ["rowmotion", "--chains", "2", "3", "--realm", "matp", "--d", "2", "--seed", "3"],
    ["rowmotion", "--chains", "2", "3", "--realm", "matq", "--d", "2", "--seed", "1"],
    ["rowmotion", "--chains", "2", "3", "--realm", "tropical", "--c", "3/2"],
    ["rowmotion", "--chains", "2", "2", "--realm", "ratfun"],
    ["stword", "--chains", "2", "3", "--realm", "tropical", "--seed", "4"],
    ["homomesy", "--realm", "ratfun", "--a", "2", "--b", "2"],
    ["homomesy", "--realm", "matp", "--a", "2", "--b", "3", "--samples", "5"],
    ["homomesy", "--realm", "tropical", "--a", "2", "--b", "3", "--samples", "5"],
    ["fuzz-nar", "--amax", "2", "--bmax", "2", "--dmax", "2", "--trials", "3"],
    ["fixtures", "--samples", "3"],
], ids=" ".join)
def test_report_is_indented_json_with_sorted_keys(args, tmp_path, capsys):
    """Every report, on stdout and through --out, is the text of
    ``json.dumps(indent=2, sort_keys=True)`` and a newline."""
    assert main(args) == 0
    out = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert main(args + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    for text in (out, path.read_text()):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_parser_reuse_carries_nothing_between_calls(tmp_path, capsys):
    """``main`` parses every call with one parser: after a run with --c,
    --steps and --out, an argparse refusal and a refused integer, a plain
    run prints what a fresh process prints.  --help and --version exit 0
    and print the same text each time."""
    args = ["rowmotion", "--chains", "2", "3", "--realm", "matq", "--d", "2", "--seed", "1"]
    path = tmp_path / "first.json"
    assert main(args + ["--c", "5", "--steps", "3", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["realm"]["c"] == "5"
    with pytest.raises(SystemExit) as exc:
        main(["rowmotion", "--chains", "2", "x"])
    assert exc.value.code == 2
    assert main(args + ["--steps", "0"]) == 2
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rowmotion.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "rowmotion"] + args, capture_output=True,
                           text=True, env=env, check=True)
    assert out == fresh.stdout
    texts = []
    for flag in ("--help", "--version", "--help", "--version"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[:2] == texts[2:] and all(texts)


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


@pytest.mark.parametrize("payload,message", [
    ([1, 2], "poset must be a JSON object"),
    ("chains", "poset must be a JSON object"),
    ({"covers": 5}, "poset 'covers' must be a list of [lower, upper] id pairs"),
    ({"covers": [[0, 1, 2]]}, "poset 'covers' must be a list of [lower, upper] id pairs"),
    ({"covers": [[[0], 1]]}, "poset 'covers' must be a list of [lower, upper] id pairs"),
    ({"chains": [2]}, "poset 'chains' must be two integers"),
    ({"chains": [2, "3"]}, "poset 'chains' must be two integers"),
    ({"chains": 4}, "poset 'chains' must be two integers"),
    ({"elements": 3}, "poset 'elements' must be a list of string or integer ids"),
    ({"elements": [[0]], "covers": []},
     "poset 'elements' must be a list of string or integer ids"),
    pytest.param({"elements": [0, 1, 2], "cover": [[0, 1], [1, 2]]},
                 "poset key 'cover' is not one of chains, coords, elements, covers, names",
                 id="key-cover"),
    pytest.param({"chains": [2, 2], "realm": "tropical"},
                 "poset key 'realm' is not one of chains, coords, elements, covers, names",
                 id="key-realm"),
    pytest.param({"chains": [2, 3], "covers": [[0, 1]], "coords": [[9, 9]]},
                 "poset 'covers' disagrees with the poset read, for which `rowmotion poset` "
                 "writes another 'covers'", id="chains-covers"),
    pytest.param({"chains": [2, 2], "coords": [[1, 1], [1, 2], [2, 1], [2, 2]]},
                 "poset 'coords' disagrees with the poset read, for which `rowmotion poset` "
                 "writes another 'coords'", id="chains-coords"),
    pytest.param({"chains": [1, 2], "elements": [0, True]},
                 "poset 'elements' disagrees with the poset read, for which `rowmotion poset` "
                 "writes another 'elements'", id="chains-elements"),
    pytest.param({"chains": [1, 2], "names": [0, 1]},
                 "poset 'names' disagrees with the poset read, for which `rowmotion poset` "
                 "writes no 'names'", id="chains-names"),
    pytest.param({"elements": [0, 1], "covers": [[0, 1]], "coords": [[1, 1], [1, 2]]},
                 "poset 'coords' disagrees with the poset read, for which `rowmotion poset` "
                 "writes no 'coords'", id="elements-coords"),
    pytest.param({"elements": [0, 1, 2], "covers": [[0, 1]], "names": ["a"]},
                 "expected 3 element names, got 1", id="names-short"),
    pytest.param({"covers": [[0, 1]], "names": ["a", "a"]},
                 "poset 'names' must be a list of distinct string or integer ids",
                 id="names-repeated"),
    pytest.param({"covers": [[0, 1]], "names": "ab"},
                 "poset 'names' must be a list of distinct string or integer ids",
                 id="names-text"),
    pytest.param({"elements": ["p", "q"], "covers": [["p", "q"]], "names": ["a", "b"]},
                 "poset 'elements' disagrees with the poset read, for which `rowmotion poset` "
                 "writes another 'elements'", id="names-ids-not-dense"),
    pytest.param({"covers": [[1, 0]], "names": ["a", "b"]},
                 "poset 'covers' disagrees with the poset read, for which `rowmotion poset` "
                 "writes another 'covers'", id="names-covers-not-canonical"),
])
def test_malformed_poset_exits_2(payload, message, tmp_path, capsys):
    src = tmp_path / "poset.json"
    src.write_text(json.dumps(payload))
    code, err = _refused(["poset", "--poset", str(src)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["poset", "--chains", "2", "3"],
    ["rowmotion", "--chains", "2", "2", "--realm", "tropical", "--steps", "1"],
    ["poset", "--poset", "NAMED"],
], ids=["poset-chains", "rowmotion-report", "poset-names"])
def test_canonical_poset_reads_back(args, tmp_path, capsys):
    """The poset block that ``poset`` and ``rowmotion`` write, every key of
    it ("names" too, for named elements), reads back through --poset to the
    same block."""
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"covers": [["u", "v"], ["v", "w"]]}))
    code, rep = run([str(named) if a == "NAMED" else a for a in args], capsys)
    assert code == 0 and ("names" in rep["poset"]) == (args[-1] == "NAMED")
    src = tmp_path / "poset.json"
    src.write_text(json.dumps(rep["poset"]))
    code, echo = run(["poset", "--poset", str(src)], capsys)
    assert code == 0 and echo["poset"] == rep["poset"]


@pytest.mark.parametrize("args,text,key", [
    (["rowmotion", "--chains", "2", "2", "--in"],
     '{"realm": {"realm": "tropical"}, "labels": {"0": "1", "0": "2", "1": "1",'
     ' "2": "1", "3": "1"}}', "0"),
    (["poset", "--poset"], '{"chains": [2, 2], "chains": [3, 3]}', "chains"),
])
def test_repeated_json_key_exits_2(args, text, key, tmp_path, capsys):
    """An input object that repeats a key is refused, not read with the
    key's last value."""
    src = tmp_path / "in.json"
    src.write_text(text)
    code, err = _refused(args + [str(src)], capsys)
    assert code == 2
    assert err == f"error: JSON object repeats the key '{key}'\n"


@pytest.mark.parametrize("args", [
    ["homomesy", "--realm", "matp", "--a", "2", "--b", "2", "--samples", "-3"],
    ["homomesy", "--realm", "tropical", "--a", "2", "--b", "2", "--samples", "0"],
    ["fixtures", "--samples", "0"],
    ["fuzz-nar", "--trials", "0"],
    ["fuzz-nar", "--amax", "0"],
    ["fuzz-nar", "--bmax", "0"],
    ["fuzz-nar", "--dmax", "0"],
    ["rowmotion", "--chains", "2", "2", "--realm", "matp", "--steps", "-1"],
])
def test_count_below_one_exits_2(args, capsys):
    """A count below 1 is refused rather than reported as a vacuous pass."""
    code, err = _refused(args, capsys)
    flag, value = args[-2:]
    assert code == 2
    assert err == f"error: {flag} must be at least 1, got {value}\n"


# The flags each labeling source of rowmotion and stword reads (a sampled
# realm, or --in), and each homomesy realm, with a value every reader accepts.
# --seed is read everywhere: every report records it.
LABELING_READS = {"tropical": {"--c"}, "ratfun": set(), "matp": {"--p", "--d", "--c"},
                  "matq": {"--d", "--c"}, "--in": set()}
HOMOMESY_READS = {"tropical": {"--samples"}, "ratfun": set(), "matp": {"--samples", "--p"}}
FLAG_VALUE = {"--realm": "matp", "--p": "101", "--d": "1", "--c": "3", "--samples": "2",
              "--seed": "5"}


def _flag_cases():
    cases = [(command, source, flag, flag in reads | {"--seed"})
             for command in ("rowmotion", "stword")
             for source, reads in LABELING_READS.items()
             for flag in ["--realm"] * (source == "--in") + ["--p", "--d", "--c", "--seed"]]
    cases += [("homomesy", source, flag, flag in reads | {"--seed"})
              for source, reads in HOMOMESY_READS.items()
              for flag in ("--p", "--samples", "--seed")]
    return [pytest.param(*case, id="-".join([case[0], case[1].lstrip("-"), case[2].lstrip("-"),
                                              "read" if case[3] else "refused"]))
            for case in cases]


@pytest.mark.parametrize("command,source,flag,read", _flag_cases())
def test_flag_is_read_or_refused(command, source, flag, read, tmp_path, capsys):
    """Each flag is read by the sources that use it and refused, with one
    ``error:`` line, by every other: none is accepted and ignored."""
    if command == "homomesy":
        args = ["homomesy", "--realm", source, "--a", "2", "--b", "2"]
    elif source == "--in":
        src = tmp_path / "g.json"
        src.write_text(json.dumps(_labels({"realm": "tropical"}, "1", "1")))
        args = [command, "--chains", "2", "2", "--in", str(src)]
    else:
        args = [command, "--chains", "2", "2", "--realm", source]
    args += ["--steps", "1"] * (command == "rowmotion") + [flag, FLAG_VALUE[flag]]
    if read:
        code, rep = run(args, capsys)
        assert code == 0 and rep["seed"] == (5 if flag == "--seed" else 0)
        return
    code, err = _refused(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if source == "--in":
        assert err.startswith(f"error: {flag} applies to a sampled labeling; with --in ")
    else:
        assert err.startswith(f"error: {flag} does not apply to --realm {source}")


@pytest.mark.parametrize("args,message", [
    (["rowmotion", "--chains", "2", "2", "--realm", "tropical", "--p", "4", "--d", "9",
      "--steps", "1"], "--p does not apply to --realm tropical; it is the matp prime"),
    (["stword", "--chains", "2", "2", "--realm", "matq", "--p", "4"],
     "--p does not apply to --realm matq; it is the matp prime"),
    (["rowmotion", "--chains", "2", "2", "--realm", "tropical", "--d", "9"],
     "--d does not apply to --realm tropical; it is the matrix dimension"),
    (["homomesy", "--realm", "ratfun", "--a", "2", "--b", "2", "--samples", "7"],
     "--samples does not apply to --realm ratfun; its one labeling is symbolic"),
    (["rowmotion", "--poset", "P", "--chains", "3", "3", "--realm", "tropical"],
     "give --poset FILE or --chains A B, not both"),
    (["poset", "--poset", "P", "--chains", "3", "3"],
     "give --poset FILE or --chains A B, not both"),
], ids=["rowmotion-tropical-p-d", "stword-matq-p", "rowmotion-tropical-d",
        "homomesy-ratfun-samples", "rowmotion-poset-chains", "poset-poset-chains"])
def test_flag_once_ignored_exits_2(args, message, tmp_path, capsys):
    """A flag its source does not read is refused with the reason, and a
    poset given both as a file and as --chains is refused."""
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"chains": [2, 2]}))
    code, err = _refused([str(src) if a == "P" else a for a in args], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_homomesy_ratfun_3x3_passes(capsys):
    """Symbolic homomesy on [3]x[3] finishes in desk time and passes."""
    start = time.monotonic()
    code, rep = run(["homomesy", "--realm", "ratfun", "--a", "3", "--b", "3"], capsys)
    assert time.monotonic() - start < 60
    assert code == 0 and all(f["pass"] for f in rep["fibers"])


def test_toggle_and_transfer_orbits_agree(capsys):
    """The two rowmotion modes report the same orbit for one seed."""
    args = ["rowmotion", "--chains", "4", "5", "--realm", "matp", "--d", "3", "--seed", "5"]
    reports = [run(args + ["--mode", mode], capsys) for mode in ("toggles", "transfer")]
    assert [code for code, _ in reports] == [0, 0]
    assert reports[0][1]["steps"] == reports[1][1]["steps"]


def test_fuzz_at_a_small_prime_redraws_singular_labelings(capsys):
    """At p = 101 some d = 4 draws are singular; they are redrawn and every
    trial still passes."""
    code, rep = run(["fuzz-nar", "--amax", "2", "--bmax", "2", "--dmax", "4", "--trials", "5",
                     "--p", "101", "--seed", "3"], capsys)
    assert code == 0 and rep["all_pass"]
    assert any(c["singular_resamples"] for c in rep["cells"] if c["d"] == 4)


NAR_EXPECTED_STEPS = fixtures._nar_expected_steps


def _singular(realm, *labels):
    raise SingularValue("singular")


def _shifted(realm, *labels):
    """The worked example's orbit, one step ahead."""
    steps, st0 = NAR_EXPECTED_STEPS(realm, *labels)
    return steps[1:] + steps[:1], st0


class _SingularRealm(fixtures.FpMatrixRealm):
    """A prime-field matrix realm in which no value has an inverse."""

    def inv(self, x):
        raise SingularValue("singular")


@pytest.mark.parametrize("attr,value,name,detail", [
    ("_nar_expected_steps", _singular, "nar-2x2-orbit",
     "raised SamplingExhausted: no nonsingular labeling after 32 attempts"),
    ("_nar_expected_steps", _shifted, "nar-2x2-orbit", "label mismatch at d=1, step 1"),
    ("FpMatrixRealm", _SingularRealm, "skew-inverse-sum",
     "raised SamplingExhausted: no nonsingular labeling after 32 attempts"),
], ids=["all-draws-singular", "wrong-orbit", "skew-all-singular"])
def test_noncommutative_fixture_failure_is_reported(attr, value, name, detail, monkeypatch,
                                                    capsys):
    """A noncommutative fixture fails in the table, and the run goes on to
    the other fixtures, when every draw is singular (the redraws run out)
    and when the orbit leaves the worked example."""
    monkeypatch.setattr(fixtures, attr, value)
    code, rep = run(["fixtures", "--samples", "1"], capsys)
    assert code == 1
    failed = [f for f in rep["fixtures"] if not f["passed"]]
    assert [f["name"] for f in failed] == [name]
    assert failed[0]["detail"].startswith(detail)


def test_orbit_check_refuses_a_table_longer_than_the_period():
    """An orbit that returns before the expected table ends fails on its
    period: on [1]x[1] (period 2) a 4-step table built from the orbit itself
    would otherwise be read past the orbit's last step."""
    p = product_of_chains(1, 1)
    g = Labeling(TropicalRealm(1), [Fraction(1, 3)])
    orbit = iterate(p, g, steps=2)
    steps = [lab.values for lab in orbit.labelings[:2]]
    st0 = orbit.st_words[0].entries
    assert fixtures._orbit_mismatch(p, g, steps, st0, "transfer", "") is None
    assert fixtures._orbit_mismatch(p, g, steps * 2, st0, "transfer", "") == "period 2, expected 4"


@pytest.mark.parametrize("args", [
    ["rowmotion", "--chains", "2", "2", "--in", ""],
    ["stword", "--chains", "2", "2", "--in", ""],
    ["rowmotion", "--chains", "2", "2", "--poset", ""],
    ["poset", "--chains", "2", "2", "--out", ""],
], ids=["rowmotion-in", "stword-in", "poset", "out"])
def test_empty_path_is_refused_not_ignored(args, capsys):
    """An empty file name is a file that cannot be opened, not a flag left
    out: the run is refused, not made from a sampled labeling, from
    --chains or onto stdout."""
    code, err = _refused(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "''" in err

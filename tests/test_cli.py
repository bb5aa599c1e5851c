"""Exit codes, report formats, and eval schemas of the command-line front door."""

import json
import math

from qhyper.cli import RunConfig, _parse_m, _parse_q, _parse_seeds, main
from qhyper.qcore import QContext, qpoch_infinite

CTX = QContext(q=0.5 + 0.0j)


def test_list_contains_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert any("thm31.integral" in ln for ln in lines)
    assert len(lines) >= 33
    ids = [ln.split()[0] for ln in lines]
    assert ids == sorted(ids)


def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", "--ids", "heine.m1", "--seeds", "0..1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 pass / 0 fail" in out


def test_verify_unknown_id_exit_two(capsys):
    rc = main(["verify", "--ids", "nosuch.id"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "nosuch.id" in err


def test_verify_empty_selection_exit_two(capsys):
    # heine.m1 has M = 1 only; "," and "0" select no M at all
    for m in ("3", ",", "0"):
        rc = main(["verify", "--ids", "heine.m1", "--m", m])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: no checks selected" in captured.err
        assert captured.out == ""


def test_verify_q_out_of_range(capsys):
    rc = main(["verify", "--ids", "heine.m1", "--q", "1.2"])
    assert rc == 2
    assert "|q|" in capsys.readouterr().err


def test_verify_hostile_q_is_loud(capsys):
    # |q| near 1 must either refuse to run or record convergence failures
    rc = main(["verify", "--ids", "qrp.system", "--q", "0.99,0",
               "--seeds", "0..0", "--m", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert rc in (1, 2)
    if rc == 1:
        rows = json.loads(out)
        assert any("NoConvergence" in row.get("reason", "") for row in rows)


def test_json_schema(capsys):
    rc = main(["verify", "--ids", "heine.m1,phi.cocycle", "--seeds", "0..1", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6  # heine.m1 at M=1; phi.cocycle at M=1,2; seeds 0,1
    for row in rows:
        assert set(row) <= {"id", "seed", "M", "q", "rel_error", "pass", "reason"}
        assert "wall_ms" not in row
        assert row["q"] == [0.5, 0.0]
        assert isinstance(row["seed"], int) and isinstance(row["M"], int)
        assert row["pass"] is True
    # sorted by (id, M, seed)
    keys = [(row["id"], row["M"], row["seed"]) for row in rows]
    assert keys == sorted(keys)


def test_rerun_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        rc = main(["verify", "--ids", "bailey.integral,qal.andrews", "--seeds", "0..2",
                   "--m", "1,2", "--format", "json", "--out", str(path)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_header(capsys):
    rc = main(["verify", "--ids", "heine.m1", "--seeds", "0..0", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "id,seed,M,q_re,q_im,rel_error,pass,reason"


def test_tol_override_direction(capsys):
    rc = main(["verify", "--ids", "heine.m1", "--seeds", "0..0", "--tol", "1e-30"])
    capsys.readouterr()
    assert rc == 1
    rc = main(["verify", "--ids", "heine.m1", "--seeds", "0..0", "--tol", "10"])
    capsys.readouterr()
    assert rc == 0


def test_eval_rphis_binomial(tmp_path, capsys):
    # 1phi0(a; -; z) = (az)_inf / (z)_inf
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"upper": [0.3], "lower": [], "z": 0.4}))
    rc = main(["eval", "rphis", str(params)])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.splitlines()[0].split()[2])
    oracle = (qpoch_infinite(0.3 * 0.4, CTX) / qpoch_infinite(0.4 + 0j, CTX)).real
    assert math.isclose(value, oracle, rel_tol=1e-12)
    assert "converged = true" in out


def test_eval_rp_integral_empty_path(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "a": [[0.4, 0.1], 0.3, 0.5, 0.25], "b": [0.2, 0.35, [0.15, -0.05], 0.3],
        "i": 2, "j": 2,
    }))
    rc = main(["eval", "rp_integral", str(params)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "value = 0 +0j"


def test_eval_missing_field(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"b": [0.2], "i": 1, "j": 2}))
    rc = main(["eval", "rp_integral", str(params)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'a'" in err


def test_eval_unknown_field(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"upper": [0.3], "lower": [], "z": 0.4, "zz": 1}))
    rc = main(["eval", "rphis", str(params)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'zz'" in err


def test_eval_unknown_target(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text("{}")
    rc = main(["eval", "nosuch", str(params)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "nosuch" in err


def test_eval_bad_complex_shape(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"upper": [[0.3, 0.0, 1.0]], "lower": [], "z": 0.4}))
    rc = main(["eval", "rphis", str(params)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "upper[0]" in err


def test_tol_not_finite_and_positive_exit_two(tmp_path, capsys):
    # with --tol inf rphis stopped after 3 shells at 2.7728 and called it
    # converged (the sum is 3.30827...); with nan it ran to the shell cap and
    # exited 0, and verify --tol nan failed every check and exited 1
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"upper": [0.3, 0.2], "lower": [0.6], "z": 0.4}))
    for tol in ("nan", "inf", "-inf", "0", "-1e-13"):
        for argv in (["eval", "rphis", str(params)], ["verify", "--ids", "heine.m1"]):
            rc = main(argv + [f"--tol={tol}"])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err.startswith("error: --tol")
            assert captured.out == ""
    assert main(["eval", "rphis", str(params), "--tol", "1e-13"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("value = 3.308272649032")
    assert "converged = true" in out


def test_runconfig_roundtrip():
    cfg = RunConfig(ids=["heine.m1", "qal.phiD"], seeds=[2, 3, 4], M_values=[1, 3],
                    q=complex(0.55, -0.2), tol=1e-9, shells=500, out="r.json", format="csv")
    args = cfg.to_args()
    flags = dict(zip(args[::2], args[1::2]))
    back = RunConfig(
        ids=flags["--ids"].split(","),
        seeds=_parse_seeds(flags["--seeds"]),
        M_values=_parse_m(flags["--m"]),
        q=_parse_q(flags["--q"]),
        tol=float(flags["--tol"]),
        shells=int(flags["--shells"]),
        out=flags["--out"],
        format=flags["--format"],
    )
    assert back == cfg


def test_no_command_prints_help(capsys):
    rc = main([])
    assert rc == 2
    assert "verify" in capsys.readouterr().out

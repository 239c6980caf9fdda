import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import loewylab
from loewylab.cli import TRUNCATE_AT, main
from loewylab.projective import CONDITIONAL_FLAG_KEY


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    code = exc.value.code
    return (code if code is not None else 0), out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and err == ""
    return json.loads(out)


def test_block_text_frozen(capsys):
    code, out, err = run_cli(["block", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    assert "singular block for SL(3), p = 5: 3 restricted weights" in out
    assert "i=0: lambda=[0,4]  mu=[0,-1]  lambda+rho=[1,5]" in out
    assert "i=1: lambda=[3,0]  mu=[-2,0]  lambda+rho=[4,1]" in out
    assert "i=2: lambda=[4,3]  mu=[-1,-2]  lambda+rho=[5,4]" in out


def test_invalid_inputs_exit_2(capsys):
    for argv in [
        ["block", "--n", "2", "--p", "3"],
        ["block", "--n", "4", "--p", "5"],
        ["block", "--n", "2", "--p", "4"],
        ["block", "--n", "0", "--p", "5"],
        ["verma", "--n", "2", "--p", "5", "--i", "5"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1,x"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--eps", "1,0"],
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error: "), argv


def test_argparse_failures_exit_2(capsys):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["nope", "--n", "2", "--p", "5"], capsys)[0] == 2
    assert run_cli(["block", "--p", "5"], capsys)[0] == 2
    code, out, err = run_cli(
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1,0", "--eps", "1,0,0"],
        capsys,
    )
    assert code == 2


def test_json_reruns_are_byte_identical(capsys):
    argv = ["verma", "--n", "3", "--p", "5", "--i", "2", "--format", "json"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert code == 0
    assert first == second


def test_verma_json_schema_and_frozen_layers(capsys):
    payload = run_json(["verma", "--n", "2", "--p", "5", "--i", "1"], capsys)
    assert set(payload) == {"n", "p", "object", "layers", CONDITIONAL_FLAG_KEY}
    assert payload["n"] == 2 and payload["p"] == 5
    assert payload["object"] == "Zhat(i=1, nu=[0,0])"
    assert payload[CONDITIONAL_FLAG_KEY] is False
    assert payload["layers"] == [
        {"j": 0, "factors": [{"i": 1, "mult": 1, "nu": [0, 0]}]},
        {
            "j": 1,
            "factors": [
                {"i": 0, "mult": 1, "nu": [-1, 0]},
                {"i": 2, "mult": 1, "nu": [0, -1]},
            ],
        },
        {"j": 2, "factors": [{"i": 1, "mult": 1, "nu": [-1, -1]}]},
    ]


def test_layer_commands_text_head_frozen(capsys):
    expected = {
        "verma": ["Zhat(i=1, nu=[0,0]) radical layers, n=2, p=5", "  rad_0 (1): (1; [0,0])"],
        "verma-dual": [
            "Zhat_dual(i=1, nu=[0,0]) radical layers, n=2, p=5",
            "  rad_0 (1): (1; [-1,-1])",
        ],
        "proj": [
            "Qhat(i=1, nu=[0,0]) radical layers, n=2, p=5",
            f"note: {CONDITIONAL_FLAG_KEY} = true",
            "  rad_0 (1): (1; [0,0])",
        ],
    }
    for command, head in expected.items():
        code, out, err = run_cli([command, "--n", "2", "--p", "5", "--i", "1"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[: len(head)] == head


def test_help_lists_subcommands(capsys):
    code, out, err = run_cli(["--help"], capsys)
    assert code == 0
    assert re.search(r"\{([^}]*)\}", out).group(1) == (
        "block,verma,verma-dual,proj,ext,dim,jantzen,verify"
    )


def test_verma_dual_reverses_verma(capsys):
    verma = run_json(["verma", "--n", "2", "--p", "5", "--i", "1"], capsys)
    dual = run_json(["verma-dual", "--n", "2", "--p", "5", "--i", "1"], capsys)
    assert dual[CONDITIONAL_FLAG_KEY] is False
    n = verma["n"]
    for j in range(n + 1):
        assert dual["layers"][j]["factors"] == verma["layers"][n - j]["factors"]


def test_proj_is_conditional(capsys):
    payload = run_json(["proj", "--n", "1", "--p", "5", "--i", "0"], capsys)
    assert payload[CONDITIONAL_FLAG_KEY] is True
    assert payload["object"] == "Qhat(i=0, nu=[0])"
    assert [len(layer["factors"]) for layer in payload["layers"]] == [1, 2, 1]
    code, out, _ = run_cli(["proj", "--n", "1", "--p", "5", "--i", "0"], capsys)
    assert code == 0
    assert f"note: {CONDITIONAL_FLAG_KEY} = true" in out


def test_twist_flags_agree(capsys):
    base = ["verma", "--n", "2", "--p", "5", "--i", "1", "--format", "json"]
    code, via_nu, _ = run_cli(base + ["--nu", "1,0"], capsys)
    assert code == 0
    code, via_eps, _ = run_cli(base + ["--eps", "1,0,0"], capsys)
    assert code == 0
    assert via_nu == via_eps


def test_ext_table_json(capsys):
    payload = run_json(["ext", "--n", "2", "--p", "5"], capsys)
    assert payload["object"] == "ext-table"
    assert payload["kinds"] == [
        ["zero", "dual", "zero"],
        ["standard", "zero", "dual"],
        ["zero", "standard", "zero"],
    ]


def test_ext_single_index_json(capsys):
    payload = run_json(["ext", "--n", "2", "--p", "5", "--i", "0"], capsys)
    assert payload["kinds"] == ["zero", "dual", "zero"]
    assert payload["rad1_cover"] == [
        {"i": 1, "mult": 1, "nu": [-1, 1]},
        {"i": 1, "mult": 1, "nu": [0, -1]},
        {"i": 1, "mult": 1, "nu": [1, 0]},
    ]


def test_text_truncation_and_full(capsys):
    argv = ["ext", "--n", "100", "--p", "7", "--i", "50"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "202 labels" in out
    assert f"... ({202 - TRUNCATE_AT} more)" in out
    code, out, _ = run_cli(argv + ["--full"], capsys)
    assert code == 0
    assert "more)" not in out
    payload = run_json(argv, capsys)
    assert len(payload["rad1_cover"]) == 202


def test_dim_text_and_exit(capsys):
    code, out, err = run_cli(["dim", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    assert "baby Verma dimension 125" in out
    assert "i=0: dim L=15  M_I=25 (ok)  M_J=-" in out
    assert "i=1: dim L=10  M_I=100 (ok)  M_J=25 (ok)" in out
    assert "i=2: dim L=90  M_I=-  M_J=100 (ok)" in out
    assert "per-Verma dimension conservation: ok" in out
    payload = run_json(["dim", "--n", "3", "--p", "5"], capsys)
    assert payload["conservation_ok"] is True
    assert payload["verma_dimension"] == 5**6


def test_jantzen_command(capsys):
    code, out, err = run_cli(["jantzen", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    assert "checked 9 pairs" in out
    assert "OK" in out
    code, out, _ = run_cli(["jantzen", "--n", "2", "--p", "5", "--i", "0"], capsys)
    assert code == 0
    cert_lines = [line for line in out.splitlines() if "root=" in line]
    assert len(cert_lines) == 3
    assert all(line.strip().startswith("i=0 ") for line in cert_lines)
    payload = run_json(["jantzen", "--n", "2", "--p", "5"], capsys)
    assert payload["report"]["ok"] is True
    assert payload["report"]["failures"] == []


def test_verify_command(capsys):
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 13
    assert not any(line.startswith("FAIL") for line in lines)
    assert any("[conditional]" in line for line in lines)
    assert lines[-1].startswith("all checks passed at n=2, p=5")
    payload = run_json(["verify", "--n", "2", "--p", "5"], capsys)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 13
    names = [c["name"] for c in payload["checks"]]
    assert "chardim.block_simplicity" in names
    assert "projective.structure" in names


def test_python_m_loewylab(capsys):
    argv = ["block", "--n", "2", "--p", "5", "--format", "json"]
    src = str(Path(loewylab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "loewylab", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert proc.stdout == out


def test_large_prime_is_checked_fast(capsys):
    start = perf_counter()
    code, out, err = run_cli(["block", "--n", "1", "--p", str(2**61 - 1)], capsys)
    assert perf_counter() - start < 0.5
    assert code == 0 and err == ""
    composite = (2**31 - 1) * (2**61 - 1)
    code, out, err = run_cli(["block", "--n", "1", "--p", str(composite)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")

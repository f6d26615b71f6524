import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socone
from socone import cli, jsonio, matrices, states
from socone.cli import main

_SRC = str(Path(socone.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_passes(capsys):
    code, out, err = run(capsys, "verify", "--all", "--n", "2", "--degree", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_selected_suites(capsys):
    code, out, _ = run(capsys, "verify", "--lie", "--n", "3")
    assert code == 0
    assert "n=3 reference matrices" in out
    code, out, _ = run(capsys, "verify", "--berezin", "--n", "1", "--emit-latex")
    assert code == 0
    assert r"\Upsilon" in out


def test_verify_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "verify", "--n", "0")
    assert code == 2
    assert "usage error" in err


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2


def test_float_tau_rejected(capsys):
    code, _, err = run(capsys, "moments", "--n", "1", "--tau", "2.5", "--degree", "2")
    assert code == 2
    assert "floats are rejected" in err


@pytest.mark.parametrize("value", ["abc", "--1"])
def test_a_value_that_is_no_number_gets_no_float_note(capsys, value):
    code, out, err = run(capsys, "coords", "--n", "1", f"--z={value}")
    assert (code, out) == (2, "")
    assert err == f"usage error: not an exact rational: {value!r}\n"


def test_verify_rejects_csv(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lie", "--n", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    monkeypatch.setenv("SOCONE_FORMAT", "csv")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lie", "--n", "1"])
    assert exc.value.code == 2


def test_verify_json_with_latex_is_usage_error(capsys):
    argv = ["verify", "--berezin", "--n", "1", "--format", "json", "--emit-latex"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "--emit-latex" in err


def test_gram_symbolic_diagonal(capsys):
    code, out, _ = run(
        capsys, "gram", "--n", "1", "--degree", "3", "--tau", "symbolic"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "t" in lines[1]
    assert "2*t^2 + 2*t" in lines[2]
    assert "6*t^3 + 18*t^2 + 12*t" in lines[3]


def test_moments_values(capsys):
    code, out, _ = run(
        capsys, "moments", "--n", "1", "--tau", "2", "--degree", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["0,1,2", "1,2,6"]


def test_basis_poly_output(capsys):
    code, out, _ = run(
        capsys, "basis-poly", "--n", "1", "--kmax", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["text"] for p in payload["polynomials"]] == ["1", "x1 - t"]


def test_transform_output(capsys):
    code, out, _ = run(
        capsys, "transform", "--n", "2", "--degree", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    by_index = {c["index"]: c["value"] for c in payload["coefficients"]}
    assert by_index["0,0"] == [{"exps": {}, "coeff": {"re": "1", "im": "0"}}]
    assert by_index["0,2"] == [
        {"exps": {"t": 1}, "coeff": {"re": "1/2", "im": "0"}}
    ]


def test_leibniz_value_and_series(capsys):
    code, out, _ = run(
        capsys, "leibniz", "--n", "2", "--w", "1,0", "--v", "0,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == {"re": "2", "im": "0"}
    code, out, _ = run(
        capsys, "leibniz", "--n", "1", "--degree", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "symbolic"
    assert payload["series"]


def test_leibniz_needs_both_points(capsys):
    code, _, err = run(capsys, "leibniz", "--n", "1", "--w", "1")
    assert code == 2


def test_coherent_output(capsys):
    code, out, _ = run(
        capsys, "coherent", "--n", "2", "--v", "1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["state"][0] == {"re": "0", "im": "2"}
    assert payload["state"][2] == {"re": "3", "im": "0"}
    code, out, _ = run(capsys, "coherent", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["v"] == "symbolic"


def test_determinism_byte_identical(capsys):
    args = ["verify", "--coherent", "--n", "2", "--seed", "9", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ["gram", "--n", "2", "--degree", "2", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# sha256 of stdout, recorded at 5c998ab, and at e91de86 for (3, 7) and
# (4, 5), where the compared blocks are larger than at the benchmark sizes:
# the verify bytes are a contract across commits, not only between two runs
# of one build
VERIFY_ALL_DIGESTS = {
    (2, 4, "text"): "6c3c92afcce68b4effc9da8caaabf71f7bd29fe1b868303e6c42bc6b57526308",
    (2, 4, "json"): "b66336c5ba6f4b7ed69acf87c656715bf0e2b464c4dc41e3071e7b6434a50315",
    (3, 5, "text"): "5a77c7121c7e98770e1f6951476bac7b92534bef8b22dff28a129b02e8afd89d",
    (3, 5, "json"): "088274929413e5cebddd2509ce83175f0268988e87336d4a0909cade9bd0f412",
    (3, 7, "text"): "91421950c56f463038fee3eafb458c21bbe8bc8d674b0d7892439898eba2737f",
    (4, 5, "text"): "2d80254a8dcf905d34c0e8a821ff0e274ed6b53acdaded465483da61882e4179",
}


@pytest.mark.parametrize("n, d, fmt", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_matches_recorded_digest(capsys, n, d, fmt):
    args = ["verify", "--all", "--n", str(n), "--degree", str(d)]
    code, out, err = run(capsys, *args, "--format", fmt, "--seed", "0")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == VERIFY_ALL_DIGESTS[n, d, fmt]


def test_verify_all_byte_identical_with_warm_caches(capsys):
    # the second run meets every per-n and per-(n, D) structure cached
    for fmt in ("text", "json"):
        args = ["verify", "--all", "--n", "2", "--degree", "4", "--format", fmt]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


# sha256 of stdout, recorded at 4d8e696 before the table commands stopped
# building the format they do not print: one small invocation per table
# command and format
TABLE_DIGESTS = {
    ("gram --n 2 --degree 2 --tau 5/2", "text"): "a11a36e36faabd024fd6652b78385a6d5e2d662ed7185ba1b7ebc19af18a550a",
    ("gram --n 2 --degree 2 --tau 5/2", "json"): "56988bc33ebe99c8f36e432c696b96a80f7a7fdc56fc4b6302be6f701fd0d922",
    ("gram --n 2 --degree 2 --tau 5/2", "csv"): "60787a494831df4313557c2c9d7d15dae54a605f8da0783ab9f3532c04d12e8a",
    ("gram --n 1 --degree 3", "text"): "5d59861c0332347f8ca8f3bbd1b8981e7b5402b500a1bc44d6c22dde9def0ce7",
    ("gram --n 1 --degree 3", "json"): "f36838a445a6cbaea3de3062a3fb68929f198460eee9cb22c745156b30360de8",
    ("gram --n 1 --degree 3", "csv"): "3091ae0e864c13bc7a7736f092e03bf67a1fc1a50059aa2075fa8157059aaa7d",
    ("moments --n 2 --degree 3 --tau 3", "text"): "53a2c6de9d3150e204d372e73f4e6b5eb89c8f966c0fc08fe88553c43f7547a6",
    ("moments --n 2 --degree 3 --tau 3", "json"): "370b71cf4e717ba7d494a5e4e7a74e5bf8baaebb437c6c250fcd3c9fd502250c",
    ("moments --n 2 --degree 3 --tau 3", "csv"): "f97beb73f9e45641db9925a64560811c386ef68ed2da927a6af22178b00e7665",
    ("transform --n 2 --degree 2", "text"): "071cc7338e976cae1aa168723839875e0f3d11e0fff6b86a447997f552427473",
    ("transform --n 2 --degree 2", "json"): "18f6a2edcdadcebaa3a450fc1db039cb40b50750899a7dfe785c8f00cdf79545",
    ("transform --n 2 --degree 2", "csv"): "7a06d1a8d85569b1f9187d63143c0dc6e05e9bbdb6a57910f0d741d30c015cb2",
    ("leibniz --n 2 --degree 3", "text"): "e6ff2a17d1f010953e0a7a3b6c06d72b5e618f641fcdd55ded6c2ae956eae4fe",
    ("leibniz --n 2 --degree 3", "json"): "7eb07a7c68c4e21825bd51f57261223c15062ee65b23b3625b410136f35b75d6",
    ("leibniz --n 2 --degree 3", "csv"): "b08257a099d480d19a0cce4789781e59f15bae2cb78e37e6671df805751ac36e",
    ("leibniz --n 2 --w 1,1/2 --v -1/3,2", "text"): "ce434d9582d76f75429adff3573dab175642400badb96fc8695095fca8ab84df",
    ("leibniz --n 2 --w 1,1/2 --v -1/3,2", "json"): "31e6aeed0a32abc07580201eb4c078ab86cfc5958b243943d2bf8c50871740f2",
    ("leibniz --n 2 --w 1,1/2 --v -1/3,2", "csv"): "dc1062fe7448a851fdada57374284f52e7a53399bf30aa20dda96a9510720715",
    ("basis-poly --n 2 --kmax 2", "text"): "8f52e7e7b5333c175f3608bdbd6cab19771680d4dcf1602ecada73ec6179ceb0",
    ("basis-poly --n 2 --kmax 2", "json"): "3a8c16cc9493c07dc2652e1d713e378ab265701e4d244647be9fd46e11bb9e6a",
    ("basis-poly --n 2 --kmax 2", "csv"): "238e713c0ea32c789fff16cd0f6691f50d4befc5df77b6af5cedaca64fbba851",
    ("coherent --n 2 --v 1/2,-1", "text"): "8e29f376c3694bdcf0f6c51eae58f05cbac30017022b7badc3b53e45cb0e2bcf",
    ("coherent --n 2 --v 1/2,-1", "json"): "6528a4db97d715c6680b8111eba89f8c06f734608add645cb4ccbb42d58b2b39",
    ("coherent --n 2 --v 1/2,-1", "csv"): "820e39af3e58d3c7881c88a43edb88beaffe3ca29899c7d9e4fa29e41164b8b5",
    ("coherent --n 1", "text"): "7a7927ce863201b31c63ce73f2c562c5f099d8baa1964216ab256df48ad9c6ff",
    ("coherent --n 1", "json"): "63288dbc5d2e139bd0ffda5c22b28e6be080aeb65df639cdc34c15d47718041d",
    ("coherent --n 1", "csv"): "584eedab38d6e6c9ceacb8bc6eff75268a351bbb742f580877e815ec56a296dd",
    ("coords --n 2 --z 1/2,1/3", "text"): "b807a4be1e90256e2517fdc6468265ded14d8e8e5c302c3f35f27cffee955879",
    ("coords --n 2 --z 1/2,1/3", "json"): "967958cd7c24a913336e967cd8536fce95bd1634a01ef16d6050d0d61b0b10de",
    ("coords --n 2 --z 1/2,1/3", "csv"): "ba58ff0c8ea7df126f8f573e58ff2c1877db9cb44e8cd1fb532344d124a91f53",
    ("coords --n 2 --v 1,-1/2", "text"): "9b27c58fa5b82e87f61eb8a2fa97faba08f2335529dd9b42fe202d889300a8f2",
    ("coords --n 2 --v 1,-1/2", "json"): "02304c6edd4165f44e27f0c917fb484343e8c937b56e52c17b75f0e1d8163d70",
    ("coords --n 2 --v 1,-1/2", "csv"): "7a86a9f310ba80ae2f904c8213ac8a4341b5367ab4746aa6bb9c048483ba0c60",
}


@pytest.mark.parametrize("command, fmt", sorted(TABLE_DIGESTS))
def test_table_matches_recorded_digest(capsys, command, fmt):
    code, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == TABLE_DIGESTS[command, fmt]


def _refuse(*_args):
    raise RuntimeError("rendered a format that is not printed")


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--n", "2", "--degree", "2"],
        ["gram", "--n", "2", "--degree", "2", "--tau", "5/2"],
        ["transform", "--n", "2", "--degree", "2"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_rows_skip_the_json_work(capsys, monkeypatch, argv, fmt):
    monkeypatch.setattr(jsonio, "dumps", _refuse)
    monkeypatch.setattr(jsonio, "_write_exact", _refuse)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--n", "2", "--degree", "2"],
        ["gram", "--n", "2", "--degree", "2", "--tau", "5/2"],
        ["moments", "--n", "2", "--degree", "3", "--tau", "3"],
    ],
)
def test_json_skips_the_text_work(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_value_str", _refuse)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(out)


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SOCONE_FORMAT", "json")
    code, out, _ = run(capsys, "moments", "--n", "1", "--tau", "2", "--degree", "1")
    assert code == 0
    json.loads(out)


def test_coords_roundtrip_values(capsys):
    code, out, _ = run(
        capsys, "coords", "--n", "1", "--z", "1/2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h2"] == {"re": "1/4", "im": "0"}
    assert payload["v"] == [{"re": "1", "im": "0"}]


def test_singular_input_exit_code(capsys):
    # the pairing value 0 is a legitimate output, not a singularity
    code, _, _ = run(capsys, "leibniz", "--n", "1", "--w", "1", "--v", "1")
    assert code == 0
    # h^2 = 0 at z = (0, 1): named singularity, exit 1
    code, _, err = run(capsys, "coords", "--n", "2", "--z", "0,1")
    assert code == 1
    assert "singular" in err
    code, _, err = run(capsys, "coords", "--n", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["coherent", "--n", "1", "--v", "1"], ["leibniz", "--n", "1", "--w", "1", "--v", "1"]],
)
def test_a_generator_that_is_not_nilpotent_is_a_verification_failure(
    capsys, monkeypatch, argv
):
    def refuse(matrix, vector):
        raise matrices.NotNilpotentError("matrix is not nilpotent")

    monkeypatch.setattr(states, "exp_nilpotent_apply", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "verification failure: matrix is not nilpotent\n"


def test_zero_denominator_tau_is_usage_error(capsys):
    code, _, err = run(capsys, "gram", "--n", "1", "--degree", "2", "--tau", "1/0")
    assert code == 2
    assert "zero denominator" in err


def test_zero_denominator_point_is_usage_error(capsys):
    code, _, err = run(capsys, "coords", "--n", "1", "--z", "1/0")
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize("name", ["N", "DEGREE", "KMAX", "SEED", "HEIGHT"])
def test_bad_int_env_default_exits_2(capsys, monkeypatch, name):
    monkeypatch.setenv(f"SOCONE_{name}", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lie"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_bad_tau_env_default_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SOCONE_TAU", "1/0")
    code, _, err = run(capsys, "moments", "--n", "1", "--degree", "1")
    assert code == 2
    assert "zero denominator" in err


def test_bad_format_env_default_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SOCONE_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lie", "--n", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["gram", "--n", "1", "--degree", "1"], "--tau", "-5/2"),
        (["coords", "--n", "2"], "--v", "-1/2,0"),
    ],
)
def test_negative_values_parse_like_the_equals_spelling(capsys, argv, flag, value):
    spaced = run(capsys, *argv, flag, value)
    joined = run(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == 0


def test_format_env_change_takes_effect_between_calls(capsys, monkeypatch):
    # the parser is cached per set of SOCONE_* values, not built once
    argv = ["moments", "--n", "1", "--tau", "2", "--degree", "1"]
    monkeypatch.setenv("SOCONE_FORMAT", "csv")
    assert run(capsys, *argv) == (0, "0,1\n1,2\n", "")
    monkeypatch.setenv("SOCONE_FORMAT", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["tau"] == "2"
    monkeypatch.delenv("SOCONE_FORMAT")
    assert run(capsys, *argv) == (0, "0  1\n1  2\n", "")


@pytest.mark.parametrize("suite", ["--coherent", "--observables"])
@pytest.mark.parametrize("height", ["0", "-3"])
def test_nonpositive_height_is_usage_error(capsys, suite, height):
    code, out, err = run(capsys, "verify", suite, "--n", "1", "--height", height)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "height" in err


def test_nonpositive_height_env_default_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SOCONE_HEIGHT", "0")
    code, out, err = run(capsys, "verify", "--coherent", "--n", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["coherent", "--n", "2", "--v", "1,,2"],
        ["coherent", "--n", "2", "--v", ",1,2,"],
        ["coords", "--n", "1", "--z", ",1/2"],
    ],
    ids=["inner empty field", "outer empty fields", "leading empty field"],
)
def test_empty_tuple_fields_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lie", "--n", "1", "--tau", "3"],
        ["coords", "--n", "1", "--z", "1/2", "--degree", "3"],
        ["coherent", "--n", "1", "--seed", "4"],
        ["gram", "--n", "1", "--kmax", "2"],
        ["basis-poly", "--n", "1", "--height", "2"],
    ],
)
def test_an_option_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_an_env_default_sets_only_the_commands_that_read_it(capsys, monkeypatch):
    # verify takes no --tau, so a bad SOCONE_TAU does not reach it
    monkeypatch.setenv("SOCONE_TAU", "1/0")
    code, _, err = run(capsys, "verify", "--lie", "--n", "1")
    assert (code, err) == (0, "")


_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fractions import Fraction
from socone import cli
from socone.fock import positivity_probe
from socone.spectral import moment_positivity_probe
code = cli.main(["verify", "--all", "--n", "2", "--degree", "4"])
probes = [positivity_probe(2, 3, Fraction(3)), moment_positivity_probe(2, Fraction(3), 2)]
print(code, [p.float_min_eigenvalue > 0 for p in probes])
"""


def test_runs_without_numpy():
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True,
        env={"PYTHONPATH": _SRC},
        timeout=300,
    )
    assert result.stderr == b""
    assert result.stdout.decode().splitlines()[-1] == "0 [True, True]"


def test_a_closed_stdout_ends_without_a_traceback():
    # a buffered stdout; the unbuffered one has its own test below
    env = {"PYTHONPATH": _SRC}
    argv = [sys.executable, "-m", "socone.cli"]
    # about 200 kB of rows, more than a pipe holds, so the writer meets the
    # pipe closed after the first line
    proc = subprocess.Popen(
        argv + ["gram", "--n", "4", "--degree", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), err) == (141, b"")
    assert first.startswith(b"0,0,0,0  1")
    # a short output meets a pipe closed before it is written in main's flush
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            argv + ["verify", "--lie", "--n", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=300,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")


def test_an_unbuffered_stdout_closed_early_exits_141():
    # under PYTHONUNBUFFERED a pipe write that the reader abandons is short;
    # it must be retried so the closed pipe raises, not cut silently
    proc = subprocess.Popen(
        [sys.executable, "-m", "socone.cli", "gram", "--n", "4", "--degree", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": _SRC, "PYTHONUNBUFFERED": "1"},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert b"Traceback" not in err
    assert head.startswith(b"0,0,0,0  1")

import hashlib
import json

import pytest

from socone.cli import main


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


# sha256 of stdout, recorded at 5c998ab: the verify bytes are a contract
# across commits, not only between two runs of one build
VERIFY_ALL_DIGESTS = {
    (2, 4, "text"): "6c3c92afcce68b4effc9da8caaabf71f7bd29fe1b868303e6c42bc6b57526308",
    (2, 4, "json"): "b66336c5ba6f4b7ed69acf87c656715bf0e2b464c4dc41e3071e7b6434a50315",
    (3, 5, "text"): "5a77c7121c7e98770e1f6951476bac7b92534bef8b22dff28a129b02e8afd89d",
    (3, 5, "json"): "088274929413e5cebddd2509ce83175f0268988e87336d4a0909cade9bd0f412",
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

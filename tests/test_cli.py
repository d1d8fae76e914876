"""Exit-code contract, report structure, determinism, seed override."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from frobex.cli import main


def run(tmp_path, *argv, name="report.txt"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_qas_verify_exit_zero(tmp_path):
    code, text = run(tmp_path, "qas-verify", "--n", "2", "--ell", "3", "--p", "7")
    assert code == 0
    assert "verdict: frobenius" in text
    assert "rank: 9" in text
    assert "gram_method: generalized-permutation" in text


def test_grassmannian_census_exit_zero(tmp_path):
    code, text = run(tmp_path, "grassmannian-census", "--ell", "2", "--p", "7")
    assert code == 0
    assert "verdict: not-frobenius" in text
    assert "symmetry_d: none" in text
    assert "count[1]: 2" in text


def test_divisibility_error_exit_two(tmp_path):
    code, _ = run(tmp_path, "qas-verify", "--n", "1", "--ell", "3", "--p", "5")
    assert code == 2


def test_unparseable_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[field\np = 7\n")
    code, _ = run(tmp_path, "qas-verify", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err  # configparser points at the offending line


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "algebra.cfg"
    cfg.write_text(
        "[field]\np = 7\nell = 3\n\n"
        "[generators]\nnames = a b\ndegrees = 1; 1\n\n"
        "[relations]\nc = 0 2; -2 0\n"
    )
    code, text = run(
        tmp_path, "qas-verify", "--ell", "2", "--p", "5", "--config", str(cfg)
    )
    assert code == 0
    assert "ell: 3" in text and "p: 7" in text
    assert "cmatrix: 0 2; -2 0" in text


def test_report_embeds_config(tmp_path):
    code, text = run(tmp_path, "qas-verify", "--ell", "2", "--p", "5", "--seed", "11")
    assert code == 0
    assert "[config]" in text
    for key in ("command:", "p:", "ell:", "n:", "seed: 11", "degrees:", "cmatrix:"):
        assert key in text


def test_determinism_byte_identical(tmp_path):
    _, first = run(tmp_path, "qweyl-transfer", "--ell", "2", "--p", "5", name="a.txt")
    _, second = run(tmp_path, "qweyl-transfer", "--ell", "2", "--p", "5", name="b.txt")
    assert first == second and first


def test_env_seed_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("FROBEX_SEED", "99")
    code, text = run(tmp_path, "qas-verify", "--ell", "3", "--p", "7", "--seed", "1")
    assert code == 0
    assert "seed: 99" in text
    monkeypatch.setenv("FROBEX_SEED", "not-a-number")
    code, _ = run(tmp_path, "qas-verify", "--ell", "3", "--p", "7")
    assert code == 2


def test_rees_demo_and_nakayama(tmp_path):
    code, text = run(tmp_path, "rees-demo", "--ell", "2", "--p", "5")
    assert code == 0
    assert "m0_table: match" in text and "m1_table: match" in text
    assert "cone_freeness: pass" in text
    code, text = run(tmp_path, "nakayama", "--ell", "3", "--p", "7")
    assert code == 0
    assert "nakayama_trivial: false" in text
    assert "nakayama: " in text
    assert "nakayama_checked_pairs: 200" in text


def test_rees_demo_window_zero_is_honoured(tmp_path):
    code, text = run(tmp_path, "rees-demo", "--ell", "2", "--window", "0")
    assert code == 0
    assert "window: 0\n" in text
    assert "m0_table: match" in text


def test_rees_demo_negative_window_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "rees-demo", "--ell", "2", "--window", "-1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("frobex: input error:") and "-1" in err
    assert "Traceback" not in err


def test_nakayama_trivial_for_commutative(tmp_path):
    code, text = run(
        tmp_path, "nakayama", "--ell", "3", "--p", "7", "--cmatrix", "0 0; 0 0"
    )
    assert code == 0
    assert "nakayama_trivial: true" in text


def test_census_alt_scalars_same_counts(tmp_path):
    _, a = run(tmp_path, "grassmannian-census", "--ell", "3", "--p", "7", name="a.txt")
    _, b = run(
        tmp_path, "grassmannian-census", "--ell", "3", "--p", "7",
        "--scalars", "alt", "--t", "2", name="b.txt",
    )
    pick = lambda text: [ln for ln in text.splitlines() if ln.startswith(("count[", "verdict", "basis_size", "symmetry_d"))]
    assert pick(a) == pick(b)


def test_error_report_still_written(tmp_path):
    out = tmp_path / "err.txt"
    code = main(["qas-verify", "--n", "1", "--ell", "3", "--p", "5", "--out", str(out)])
    assert code == 2
    assert "error:" in out.read_text()


def test_census_config_file_supplies_scalars(tmp_path):
    from frobex.grassmannian import default_s_matrix

    rows = "; ".join(" ".join(str(v) for v in row) for row in default_s_matrix())
    cfg = tmp_path / "gr.cfg"
    cfg.write_text(
        "[field]\np = 7\nell = 2\n\n"
        "[generators]\nnames = x1 x2 x3 x4 x5 x6\n"
        "degrees = 2; 1; 2; 1; 2; 2\n\n"
        f"[relations]\nc = {rows}\nstraighten = x3 x4 -> 5 x2 x5\n"
    )
    code, text = run(
        tmp_path, "grassmannian-census", "--ell", "3", "--config", str(cfg)
    )
    assert code == 0
    assert "ell: 2" in text
    assert "scalars: config" in text
    assert "t: 5" in text
    assert "verdict: not-frobenius" in text


def test_census_config_rejects_misshapen_rule(tmp_path):
    from frobex.grassmannian import default_s_matrix

    rows = "; ".join(" ".join(str(v) for v in row) for row in default_s_matrix())
    cfg = tmp_path / "bad_rule.cfg"
    cfg.write_text(
        "[field]\np = 7\nell = 2\n\n"
        "[generators]\nnames = x1 x2 x3 x4 x5 x6\n"
        "degrees = 2; 1; 2; 1; 2; 2\n\n"
        f"[relations]\nc = {rows}\nstraighten = x1 x2 -> 3 x2 x1\n"
    )
    code, _ = run(tmp_path, "grassmannian-census", "--config", str(cfg))
    assert code == 2


def test_census_config_rule_without_cmatrix_sets_t(tmp_path):
    cfg = tmp_path / "rule_only.cfg"
    cfg.write_text(
        "[field]\np = 7\nell = 3\n\n"
        "[generators]\nnames = x1 x2 x3 x4 x5 x6\n"
        "degrees = 2; 1; 2; 1; 2; 2\n\n"
        "[relations]\nstraighten = x3 x4 -> 2 x2 x5\n"
    )
    code, text = run(tmp_path, "grassmannian-census", "--config", str(cfg))
    assert code == 0
    assert "t: 2" in text
    assert "scalars: default" in text
    cfg.write_text(cfg.read_text().replace("x3 x4 -> 2 x2 x5", "x1 x2 -> 3 x2 x1"))
    code, _ = run(tmp_path, "grassmannian-census", "--config", str(cfg))
    assert code == 2


CENSUS_CONFIG = (
    "[field]\np = 7\nell = 3\n\n"
    "[generators]\nnames = x1 x2 x3 x4 x5 x6\ndegrees = 2; 1; 2; 1; 2; 2\n\n"
    "[relations]\nstraighten = x3 x4 -> 2 x2 x5\n"
)


def _census_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "census.cfg"
    cfg.write_text(text)
    code, report = run(tmp_path, "grassmannian-census", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("frobex: input error: ")
    assert "error:" in report
    return err


def test_census_config_rejects_other_degrees(tmp_path, capsys):
    text = CENSUS_CONFIG.replace("2; 1; 2; 1; 2; 2", "1; 1; 1; 1; 1; 1")
    err = _census_config_error(tmp_path, capsys, text)
    assert "degrees '2; 1; 2; 1; 2; 2', not '1; 1; 1; 1; 1; 1'" in err


def test_census_config_rejects_other_names(tmp_path, capsys):
    text = CENSUS_CONFIG.replace("x1 x2 x3 x4 x5 x6", "a b c d e f").split("[relations]")[0]
    err = _census_config_error(tmp_path, capsys, text)
    assert "'x1 x2 x3 x4 x5 x6', not 'a b c d e f'" in err


def test_census_config_rejects_a_second_rule(tmp_path, capsys):
    text = CENSUS_CONFIG + "    x1 x2 -> 1 x2 x1\n"
    err = _census_config_error(tmp_path, capsys, text)
    assert "one straightening rule, not 2" in err


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("qas-verify", b"\xff\xfe\x00bad", "cannot read config file: "),
        ("grassmannian-census", CENSUS_CONFIG.replace("x4 ->", "x4"), "lacks '->'"),
        ("grassmannian-census", CENSUS_CONFIG.replace("x2 x5", "x2"), "is not 'a b -> k c d'"),
        ("grassmannian-census", CENSUS_CONFIG.replace("-> 2", "-> two"), "bad scalar exponent"),
        ("grassmannian-census", CENSUS_CONFIG.replace("x3 x4 ->", "x3 x7 ->"),
         "unknown generator 'x7'"),
        ("grassmannian-census", CENSUS_CONFIG + "c = 0 1; -1 0\n",
         "commutation matrix size does not match generators"),
    ],
    ids=["not-utf8", "no-arrow", "misshapen-rule", "non-int-scalar", "unknown-generator",
         "cmatrix-size"],
)
def test_config_file_errors_exit_two(tmp_path, capsys, command, content, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, report = run(tmp_path, command, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("frobex: input error: ") and message in err, err
    assert "Traceback" not in err
    assert "error:" in report


def test_qweyl_config_must_present_the_fixture(tmp_path, capsys):
    fixture = "[field]\np = 7\nell = 2\n\n[generators]\nnames = y x\ndegrees = 1; 1\n"
    cfg = tmp_path / "qweyl.cfg"
    others = (
        fixture.replace("y x", "a b"),
        fixture.replace("1; 1", "1; 2"),
        fixture + "\n[relations]\nc = 0 1; -1 0\n",
        fixture + "\n[relations]\nstraighten = x y -> 1 y x\n",
    )
    for command in ("qweyl-transfer", "rees-demo"):
        for text in others:
            cfg.write_text(text)
            code, report = run(tmp_path, command, "--config", str(cfg))
            assert code == 2, text
            assert capsys.readouterr().err.startswith("frobex: input error: ")
            assert "error:" in report
        cfg.write_text(fixture)
        code, report = run(tmp_path, command, "--config", str(cfg))
        assert code == 0
        assert "ell: 2" in report


def test_qas_config_names_the_generators(tmp_path):
    cfg = tmp_path / "uv.cfg"
    cfg.write_text("[field]\np = 7\nell = 3\n\n[generators]\nnames = u v\ndegrees = 1; 1\n")
    code, text = run(tmp_path, "nakayama", "--config", str(cfg))
    assert code == 0
    assert "nakayama: u -> 2*u; v -> 4*v" in text
    assert "\nn: 2\nnames: u v\np: 7\n" in text  # [config] echoes the names


def test_qas_config_with_straightening_exit_two(tmp_path, capsys):
    cfg = tmp_path / "qas_rule.cfg"
    cfg.write_text(
        "[field]\np = 7\nell = 3\n\n"
        "[generators]\nnames = x1 x2\ndegrees = 1; 1\n\n"
        "[relations]\nc = 0 1; -1 0\nstraighten = x1 x2 -> 1 x2 x1\n"
    )
    for command in ("qas-verify", "nakayama"):
        code, text = run(tmp_path, command, "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("frobex: input error: ")
        assert "no straightening relations" in err
        assert "error:" in text


def test_malformed_cmatrix_exit_two(tmp_path, capsys):
    code, text = run(tmp_path, "qas-verify", "--ell", "3", "--p", "7", "--cmatrix", "0 a; 1 0")
    assert code == 2
    assert "bad integer vector '0 a'" in capsys.readouterr().err
    assert "error:" in text


def test_malformed_degrees_exit_two(tmp_path, capsys):
    code, text = run(tmp_path, "nakayama", "--ell", "3", "--p", "7", "--degrees", "1; 1.5")
    assert code == 2
    assert "bad integer vector ' 1.5'" in capsys.readouterr().err
    assert "error:" in text


def test_empty_flag_value_exit_two(tmp_path, capsys):
    # a given value is parsed even when empty, never replaced by the default
    for flag, counts in (("--cmatrix", "0 rows and 2"), ("--degrees", "2 rows and 0")):
        code, text = run(tmp_path, "qas-verify", "--n", "2", flag, "")
        assert code == 2
        assert f"n = 2 but cmatrix has {counts} degree vectors" in capsys.readouterr().err
        assert "error:" in text


def test_fewer_than_one_generator_exit_two(tmp_path, capsys):
    for command in ("qas-verify", "nakayama"):
        for n in ("0", "-1"):
            code, text = run(tmp_path, command, "--n", n, "--ell", "3", "--p", "7")
            assert code == 2
            err = capsys.readouterr().err
            assert f"n = {n}: quantum affine space needs at least one generator" in err
            assert "error:" in text


def test_prime_beyond_the_proof_bound_exit_two(tmp_path, capsys):
    # psi_12 is composite but passes Miller-Rabin to the first twelve primes
    for ell in ("2", "3"):
        code, text = run(
            tmp_path, "qas-verify", "--n", "2", "--ell", ell, "--p", "318665857834031151167461"
        )
        assert code == 2
        assert "a proof only below 318665857834031151167461" in capsys.readouterr().err
        assert "error:" in text


def test_flags_and_config_resolve_to_the_same_report(tmp_path):
    golden = Path(__file__).parent / "golden"
    code, text = run(
        tmp_path, "qas-verify", "--n", "2", "--ell", "3", "--p", "7",
        "--degrees", "1; 2", "--cmatrix", "0 2; -2 0",
    )
    assert code == 0
    assert text == (golden / "qas-verify_config.txt").read_text()
    _, from_config = run(tmp_path, "qas-verify", "--config", str(golden / "qas-verify_config.cfg"))
    assert from_config == text


def test_flag_a_config_replaces_is_not_read(tmp_path):
    golden = Path(__file__).parent / "golden"
    config = str(golden / "qas-verify_config.cfg")
    for flags in (["--cmatrix", "0 a"], ["--degrees", "1; 1.5"], ["--n", "7", "--degrees", "x"]):
        code, text = run(tmp_path, "qas-verify", *flags, "--config", config)
        assert code == 0, flags
        assert text == (golden / "qas-verify_config.txt").read_text()
    # a config without a 'c' line leaves --cmatrix in force, and reads it
    cfg = tmp_path / "uv.cfg"
    cfg.write_text("[field]\np = 7\nell = 3\n\n[generators]\nnames = u v\ndegrees = 1; 1\n")
    code, text = run(tmp_path, "nakayama", "--cmatrix", "0 0; 0 0", "--config", str(cfg))
    assert code == 0
    assert "cmatrix: 0 0; 0 0" in text
    assert "nakayama_trivial: true" in text
    code, _ = run(tmp_path, "nakayama", "--cmatrix", "0 a", "--config", str(cfg))
    assert code == 2


def test_unwritable_out_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.txt"
    code = main(["qas-verify", "--n", "2", "--ell", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("frobex: input error: cannot write report: ")
    assert str(out) in err
    assert not out.exists()


COMMANDS = ("qas-verify", "nakayama", "qweyl-transfer", "rees-demo", "grassmannian-census")
JUNK = st.sampled_from(("", "x", "1.5", "0 a; 1 0", "1; 1.5", "1 0", ";", "0 1; -1 0; 2", "-"))
PRIMES = st.sampled_from(("x", "1.5", "-7", "0", "1", "2", "4", "5", "7", "9", "13"))
PRESENTATION = "[field]\np = {}\nell = {}\n\n[generators]\nnames = a b\ndegrees = {}\n\n[relations]\nc = {}\n"


def is_int(text):
    try:
        int(text)
        return True
    except ValueError:
        return False


@st.composite
def cli_argv(draw):
    """A subcommand with small, often invalid, values for its flags; the
    config is absent, missing, garbage or a presentation with bad values."""
    command = draw(st.sampled_from(COMMANDS + ("qas-verfy",)))
    argv = [command]
    if draw(st.booleans()):
        argv += ["--ell", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--p", draw(PRIMES)]
    if command in ("qas-verify", "nakayama"):
        if draw(st.booleans()):
            argv += ["--n", str(draw(st.integers(-1, 3)))]
        for flag in ("--cmatrix", "--degrees"):
            if draw(st.booleans()):
                argv += [flag, draw(JUNK)]
    if command == "rees-demo" and draw(st.booleans()):
        argv += ["--window", str(draw(st.integers(-2, 6)))]
    config = draw(st.sampled_from((None, "missing", "text", "presentation")))
    text = None
    if config == "text":
        text = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))
    elif config == "presentation":
        text = PRESENTATION.format(
            draw(st.sampled_from(("7", "4", "x"))),
            draw(st.sampled_from(("3", "0", "-1"))),
            draw(st.sampled_from(("1; 1", "1", "a; 1"))),
            draw(st.sampled_from(("0 1; -1 0", "0 1; 1 0", "0 1"))),
        )
    seed = draw(st.sampled_from((None, "5", "-3", "seven", "")))
    return argv, config, text, seed


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_argv())
def test_cli_fuzz_exits_cleanly(case, tmp_path, monkeypatch, capsys):
    argv, config, text, seed = case
    if config is not None:
        cfg = tmp_path / f"{config}.cfg"
        if text is not None:
            cfg.write_text(text, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    if seed is None:
        monkeypatch.delenv("FROBEX_SEED", raising=False)
    else:
        monkeypatch.setenv("FROBEX_SEED", seed)
    capsys.readouterr()
    code = main([*argv, "--out", str(tmp_path / "report.txt")])
    out, err = capsys.readouterr()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    # an unknown command or a non-integer --p is rejected while parsing; every
    # exit 2, from the parser or later, prints frobex's format and no usage
    values = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] not in COMMANDS or not is_int(values.get("--p", "0")):
        assert code == 2
    if code == 2:
        assert err.startswith("frobex: input error:") and "usage:" not in err, err

"""Exit-code contract, report structure, determinism, seed override."""

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


def test_unwritable_out_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.txt"
    code = main(["qas-verify", "--n", "2", "--ell", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("frobex: input error: cannot write report: ")
    assert str(out) in err
    assert not out.exists()

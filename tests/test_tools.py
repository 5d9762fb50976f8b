import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import output_digest  # noqa: E402


@pytest.fixture
def fake_fits(monkeypatch):
    # each method's digest is its name; no fit runs
    monkeypatch.setattr(output_digest, "run_pool", lambda fn, keys: {
        key: f"digest-{key[0]}" for key in keys})


def test_expect_passes_on_equal_digests(tmp_path, capsys, fake_fits):
    assert output_digest.main(["--epochs", "6"]) == 0
    saved = tmp_path / "digests.txt"
    saved.write_text(capsys.readouterr().out)
    assert output_digest.main(["--epochs", "6", "--expect", str(saved)]) == 0
    assert capsys.readouterr().err == ""


def test_expect_names_each_method_that_differs(tmp_path, capsys, fake_fits):
    saved = tmp_path / "digests.txt"
    saved.write_text("JOSNC digest-JOSNC\nSCON other\nSTANDARD digest-STANDARD\n"
                     "SELECT_ONLY digest-SELECT_ONLY\n")
    assert output_digest.main(["--epochs", "6", "--expect", str(saved)]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5   # every digest is still printed
    # SCON's digest differs and SCON_NCON's is missing from the file
    assert err.strip().endswith(": SCON SCON_NCON")


@pytest.mark.parametrize("text", ["JOSNC\n", "JOSNC a b\n"])
def test_expect_rejects_a_malformed_file(tmp_path, capsys, fake_fits, text):
    saved = tmp_path / "digests.txt"
    saved.write_text(text)
    with pytest.raises(SystemExit) as exc:
        output_digest.main(["--epochs", "6", "--expect", str(saved)])
    assert exc.value.code == 2
    assert "METHOD DIGEST" in capsys.readouterr().err

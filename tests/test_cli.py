import json

import pytest

from cyclosieve import Partition
from cyclosieve.cli import parse_content, parse_shape, run


class TestShapeParsing:
    def test_comma_form(self):
        assert parse_shape("3,3,1") == Partition((3, 3, 1))

    def test_exponential_form(self):
        assert parse_shape("2^3") == Partition((2, 2, 2))
        assert parse_shape("3^2") == Partition((3, 3))

    def test_both_forms_agree(self):
        assert parse_shape("2,2,2") == parse_shape("2^3")

    def test_mixed_tokens(self):
        assert parse_shape("4^2,3,1") == Partition((4, 4, 3, 1))

    def test_content(self):
        assert tuple(parse_content("1,2,0,1")) == (1, 2, 0, 1)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert run(["csp", "syt", "--shape", "2,2,2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verification_failure_is_one(self, capsys):
        assert run(["csp", "syt", "--shape", "3,3,1", "--modulus", "195"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_is_two(self, capsys):
        assert run(["csp", "cst", "--shape", "2,2"]) == 2  # missing --bound
        assert run(["nonsense"]) == 2
        assert run(["kl", "immanants", "--rank", "7"]) == 2
        assert "--allow-large" in capsys.readouterr().err

    def test_unordered_parts_are_normalized(self, capsys):
        assert parse_shape("1,2") == Partition((2, 1))

    def test_invalid_shape_is_two(self, capsys):
        assert run(["csp", "syt", "--shape", "0,2"]) == 2
        assert run(["csp", "syt", "--shape", "abc"]) == 2

    def test_cap_exceeded_is_two(self, capsys):
        assert run(["enumerate", "syt", "--shape", "4,4,4", "--cap", "5"]) == 2
        assert run(["csp", "syt", "--shape", "4,4,4", "--cap", "5"]) == 2
        assert run(["csp", "cst", "--shape", "3,3", "--bound", "4", "--cap", "5"]) == 2
        assert run(["csp", "content", "--shape", "2,2", "--content", "1,1,1,1",
                    "--power", "2", "--cap", "1"]) == 2
        assert run(["kl", "verify-promotion", "--shape", "2,2", "--cap", "1"]) == 2
        assert run(["kl", "mu-invariance", "--shape", "2,2", "--cap", "1"]) == 2
        assert run(["ribbon", "kf-check", "--shape", "2,2", "--content", "1,1,1,1",
                    "--power", "2", "--cap", "1"]) == 2


class TestJsonOutput:
    def _json(self, capsys, argv):
        code = run(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_csp_json_round_trip(self, capsys):
        code, data = self._json(capsys, ["csp", "cst", "--shape", "2,2", "--bound", "3", "--json"])
        assert code == 0
        assert data["verdict"] is True
        assert [row["fixed"] for row in data["rows"]] == [6, 0, 0]
        assert json.loads(json.dumps(data)) == data

    def test_enumerate_json(self, capsys):
        code, data = self._json(capsys, ["enumerate", "syt", "--shape", "2,2", "--json"])
        assert code == 0
        assert data["count"] == 2

    def test_kl_table_json(self, capsys):
        code, data = self._json(capsys, ["kl", "table", "--rank", "3", "--json"])
        assert code == 0
        assert all(entry["coeffs"] == [1] for entry in data["polynomials"])

    def test_stability_across_runs(self, capsys):
        run(["csp", "handshake", "4", "--json"])
        first = capsys.readouterr().out
        run(["csp", "handshake", "4", "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestFamilies:
    def test_content_family(self):
        assert run(["csp", "content", "--shape", "2,2", "--content", "1,1,1,1",
                    "--power", "2"]) == 0

    def test_handshake_noncrossing_bnwords(self):
        assert run(["csp", "handshake", "3"]) == 0
        assert run(["csp", "noncrossing", "3"]) == 0
        assert run(["csp", "bnwords", "2"]) == 0

    def test_dihedral(self):
        assert run(["dihedral", "--shape", "2,2", "--bound", "3"]) == 0

    def test_kl_subcommands(self):
        assert run(["kl", "verify-promotion", "--shape", "2,2"]) == 0
        assert run(["kl", "mu-invariance", "--shape", "2,2"]) == 0
        assert run(["kl", "mu-invariance", "--shape", "3,1"]) == 1
        assert run(["kl", "immanants", "--rank", "3"]) == 0
        assert run(["kl", "immanants", "--rank", "3", "--allow-large"]) == 0

    def test_ribbon_subcommands(self, capsys):
        assert run(["ribbon", "count", "--shape", "2,2", "--power", "2",
                    "--content", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert run(["ribbon", "kf-check", "--shape", "2,2",
                    "--content", "1,1,1,1", "--power", "2"]) == 0

    def test_env_cap_override(self, monkeypatch, capsys):
        monkeypatch.setenv("CYCLOSIEVE_CAP", "5")
        assert run(["enumerate", "syt", "--shape", "4,4,4"]) == 2
        assert run(["csp", "syt", "--shape", "2^4"]) == 2
        kf_check = ["ribbon", "kf-check", "--shape", "2,2", "--content", "1,1,1,1",
                    "--power", "2"]
        monkeypatch.setenv("CYCLOSIEVE_CAP", "1")
        assert run(["kl", "verify-promotion", "--shape", "2,2"]) == 2
        assert run(["kl", "mu-invariance", "--shape", "2,2"]) == 2
        assert run(kf_check) == 2
        monkeypatch.setenv("CYCLOSIEVE_CAP", "1000")
        assert run(["enumerate", "syt", "--shape", "4,4,4"]) == 0
        assert run(["csp", "syt", "--shape", "2^4"]) == 0
        assert run(["kl", "verify-promotion", "--shape", "2,2"]) == 0
        assert run(["kl", "mu-invariance", "--shape", "2,2"]) == 0
        assert run(kf_check) == 0

import argparse
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest

from conftest import rectangles_up_to

from cyclosieve import Partition, cli
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
        assert "--cap" in capsys.readouterr().err
        for argv in (
            "csp bnwords 0",
            "csp bnwords -2",
            "kl table --rank -1",
            "kl immanants --rank -1",
            "csp content --shape 2,2 --content 1,1,1,1 --power 0",
            "csp content --shape 2,2 --content 1,1,1,1 --power -2",
        ):
            assert run(argv.split()) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, argv

    @pytest.mark.parametrize("argv", [
        "kl table --rank 6 --json",
        "kl table --rank 6",
        "csp syt --shape 3,3,1 --json",
    ])
    def test_closed_stdout_is_two_without_traceback(self, monkeypatch, capsys, argv):
        """A reader that closes the pipe early, as ``| head -c 10`` does, is a
        resource error, not a crash."""
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(argv.split()) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["csp syt --shape 2,2", "csp syt --shape 3,3,1 --json"])
    def test_closed_pipe_in_a_fresh_interpreter(self, argv):
        """The pipe's read end is closed before the child starts, so every
        write fails.  Block-buffered, the small report fails only in main's
        flush, and the 148 KB one inside run; main then points stdout at
        os.devnull, so the interpreter's final flush prints nothing."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cyclosieve.cli", *argv.split()],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")

    @pytest.mark.parametrize("argv", [
        "kl table --rank 8",
        "kl immanants --rank 8",
        "kl verify-promotion --shape 4,4",
        "kl mu-invariance --shape 4,4",
    ])
    def test_rank_above_7_does_not_advise_the_flag(self, capsys, argv):
        """The cap reaches rank 7 only, so the refusal must not name it."""
        assert run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err == "error: ranks above 7 are not supported\n", err

    @pytest.mark.parametrize("shape", ["2,2", ""])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_csp_cst_refuses_a_bound_below_one(self, monkeypatch, capsys, shape, bound):
        """The bound is the modulus, so a bound of 0 is refused as such, not
        as a modulus the user never passed, and before anything is enumerated."""
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated a bound below one")

        monkeypatch.setattr("cyclosieve.sieving.enumerate_cst", refuse)
        assert run(["csp", "cst", "--shape", shape, "--bound", bound]) == 2
        assert capsys.readouterr() == ("", "error: bound must be positive\n")

    def test_other_verbs_take_bound_zero(self, capsys):
        assert run(["dihedral", "--shape", "2,2", "--bound", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True
        assert run(["enumerate", "cst", "--shape", "2,2", "--bound", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    @pytest.mark.parametrize("extra", ["--bound 1", "--content 9,9", "--bound 1 --content 9,9"])
    def test_enumerate_syt_refuses_what_it_ignores(self, capsys, extra):
        """SYT enumeration reads neither a bound nor a content, so it refuses
        them rather than echo them among its parameters."""
        assert run(["enumerate", "syt", "--shape", "2,2", *extra.split(), "--json"]) == 2
        assert capsys.readouterr() == ("", "error: enumerate-syt takes no --bound or --content\n")

    def test_content_without_the_rotation_symmetry_is_two(self, capsys):
        """The message names the check: invariance under rotating the
        content by ``power`` places."""
        assert run("csp content --shape 3,3 --content 2,1,2,1".split()) == 2
        assert capsys.readouterr().err == (
            "error: content (2, 1, 2, 1) is not invariant under rotation by 1 place\n"
        )
        assert run("csp content --shape 3,3 --content 2,1,1,2 --power 2".split()) == 2
        assert "under rotation by 2 places" in capsys.readouterr().err

    def test_unordered_parts_are_normalized(self, capsys):
        assert parse_shape("1,2") == Partition((2, 1))

    def test_invalid_shape_is_two(self, capsys):
        assert run(["csp", "syt", "--shape", "0,2"]) == 2
        assert run(["csp", "syt", "--shape", "abc"]) == 2
        capsys.readouterr()
        assert run(["csp", "syt", "--shape", "2^-1", "--json"]) == 2
        assert capsys.readouterr() == ("", "error: negative exponent in shape token '2^-1'\n")
        assert parse_shape("3^0") == Partition(())

    def test_non_integer_env_cap_is_named(self, monkeypatch, capsys):
        monkeypatch.setenv("CYCLOSIEVE_CAP", "x")
        assert run(["csp", "syt", "--shape", "2,2"]) == 2
        assert capsys.readouterr() == ("", "error: CYCLOSIEVE_CAP must be an integer, got 'x'\n")
        assert run(["csp", "syt", "--shape", "2,2", "--cap", "10"]) == 0

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
        assert run(["csp", "handshake", "6", "--cap", "10"]) == 2
        assert run(["csp", "noncrossing", "6", "--cap", "10"]) == 2

    def test_content_cap_reaches_the_predicted_side(self, monkeypatch, capsys):
        """The charge sum enumerates the sorted content under ``--cap`` too,
        not under the default cap."""
        from cyclosieve import qpolys, tableaux

        monkeypatch.setattr(tableaux, "DEFAULT_CAP", 10)
        qpolys._kostka_foulkes_sorted.cache_clear()
        ones = ",".join(["1"] * 9)
        assert run(["csp", "content", "--shape", "3,3,3", "--content", ones, "--cap", "100"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert run(["csp", "content", "--shape", "3,3,3", "--content", ones]) == 2
        assert capsys.readouterr().err == "error: enumeration exceeded cap 10\n"

    @pytest.mark.parametrize("argv", [
        "csp syt --shape 5,3,3,1",
        f"csp syt --shape 2,2 --modulus {10**41}",
        "csp syt --shape 3,3,1 --cap 100",
    ], ids=["default-5,3,3,1", "given-10^41", "default-3,3,1-cap-100"])
    def test_modulus_over_the_cap_is_two(self, capsys, argv):
        """Every power below the modulus is evaluated, so a modulus above
        the cap is refused.  The default modulus of 5,3,3,1 is its promotion
        order, about 1.3e32; reducing mod Phi_m at such an m used to end in
        an OverflowError traceback."""
        assert run(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "--modulus" in err and "--cap" in err

    def test_given_modulus_is_checked_before_enumerating(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated before checking the modulus")

        monkeypatch.setattr("cyclosieve.sieving.enumerate_syt", refuse)
        assert run(["csp", "syt", "--shape", "4^4", "--modulus", str(10**41)]) == 2
        assert "--modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("modulus", ["0", "-20"])
    def test_non_positive_modulus_is_refused_before_enumerating(self, monkeypatch, capsys, modulus):
        """5^4 has 1,662,804 SYT; a modulus of 0 used to be refused only
        after they were all enumerated and promoted (0.9 s, 211 MB)."""
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated before checking the modulus")

        monkeypatch.setattr("cyclosieve.sieving.enumerate_syt", refuse)
        argv = ["csp", "syt", "--shape", "5,5,5,5", "--modulus", modulus, "--cap", "3000000"]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: the modulus must be positive\n")

    @pytest.mark.parametrize("argv, terms", [
        ("csp syt --shape 5,2,1,1,1 --json", 16744 * 6336),
        ("csp syt --shape 2,2 --modulus 40 --cap 63", 40 * 16),
    ], ids=["default-5,2,1,1,1", "given-40-cap-63"])
    def test_output_terms_over_the_cap_are_two(self, monkeypatch, capsys, argv, terms):
        """m rows of up to phi(m) residue terms each are held against ten
        times the cap once m is known.  The default modulus of 5,2,1,1,1 is
        16,744; its run used to take about a minute and print 478 MB.  A
        given modulus is refused before anything is enumerated."""
        from cyclosieve import sieving

        def refuse(*args, **kwargs):
            raise AssertionError("verified over the cap")

        monkeypatch.setattr(sieving, "verify_csp", refuse)
        if "--modulus" in argv:
            monkeypatch.setattr(sieving, "enumerate_syt", refuse)
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"= {terms} residue terms" in err and "--modulus" in err and "--cap" in err

    def test_output_terms_at_the_cap_still_run(self, capsys):
        """m * phi(m) equal to ten times the cap is allowed; 2,2 sieves only
        at its own modulus 4, so the run ends in a FAIL verdict."""
        assert run("csp syt --shape 2,2 --modulus 40 --cap 64 --json".split()) == 1
        assert json.loads(capsys.readouterr().out)["m"] == 40

    def test_default_modulus_under_the_cap_still_runs(self, capsys):
        """6,2,1 takes its promotion order 3,696 as the modulus: the
        documented non-rectangle failure, unchanged by the cap check."""
        assert run(["csp", "syt", "--shape", "6,2,1", "--json"]) == 1
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "f977aec6bb5faac247cc3d1e3cefe3f72246f79d586721c4d4c116f0edbb30f3"


class TestParserReuse:
    def test_calls_share_one_parser_and_match_a_fresh_one(self, monkeypatch, capsys):
        """One process serves many calls from one parser; each call's exit
        code and output equal those of a parser built for that call alone."""
        steps = [
            "csp cst --shape 2,2 --bound 3 --json",
            "csp cst --shape 2,2",  # usage error: missing --bound
            "dihedral --shape 2,2 --bound 3 --json",
            "--help",
            "csp content --shape 2,2 --content 1,1,1,1 --power 2 --json",
            "csp syt --shape 2^4",
            ("CYCLOSIEVE_CAP", "5"),
            "csp syt --shape 2^4",  # now over the cap
            "csp help",  # usage error: no such family
            ("CYCLOSIEVE_CAP", None),
            "csp syt --shape 2^4",
            "kl table --rank 3 --json",
            "csp handshake 3 --json",
        ]

        def replay(fresh: bool) -> list:
            outcomes = []
            for step in steps:
                if isinstance(step, tuple):
                    name, value = step
                    if value is None:
                        monkeypatch.delenv(name, raising=False)
                    else:
                        monkeypatch.setenv(name, value)
                    continue
                if fresh:
                    monkeypatch.setattr(cli, "_parser", cli.build_parser())
                code = run(step.split())
                captured = capsys.readouterr()
                outcomes.append((step, code, captured.out, captured.err))
            return outcomes

        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        run(["--help"])
        capsys.readouterr()
        shared = cli._parser
        reused = replay(fresh=False)
        assert shared is not None and cli._parser is shared
        assert reused == replay(fresh=True)
        assert [code for _, code, _, _ in reused] == [0, 2, 0, 0, 0, 0, 2, 2, 0, 0, 0]


def _parser_tree(parser, path=()):
    """Every parser under ``parser`` with its subcommand path, parents first."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parser_tree(child, path + (name,))


PARSERS = {" ".join(path): p for path, p in _parser_tree(cli.build_parser())}
LEAVES = [
    name for name, p in PARSERS.items()
    if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
]


class TestParserTree:
    # SHA-256 of each parser's --help output (exit 0) and of the usage error
    # it prints when called with no further arguments (exit 2), recorded
    # while each subcommand was still dispatched a second time on a family
    # string; those of the four kl leaves since their rank flag went.
    PINNED = {
        "": ("fa872c82fef21f2eb57b72c26d58f74bb47fab1e562d000453412fc68ffb8fb5",
             "73cff20bcf99b21f48a8fca58c5c13e4dfd9e26a538c11bc8747b1f3cc8868f1"),
        "enumerate": ("35570ae008bfa3bbcb2ebae72cb82dfe34a0123377a7a9ace3456ed7f128644e",
                      "a0c82628045a439a3474601be453da5cfb61ac7de81645c599c22062cd48218f"),
        "csp": ("fe00d9da26385d8f2c40c9cac3c4a299306997f9549ed58b46376895ac387409",
                "8ac8305ef2a5f45d434f7fcda177c671d4eec65673da877e95a70ba16b95df2f"),
        "csp syt": ("4dd2df01bb0747f85a269c69e6d141f84fd341d206df36d049b80dcc74d3eec8",
                    "f544e4a0787b45ca7d8453fdede0197c9436ecbf3a3bde41adea3bd03b11f768"),
        "csp cst": ("03aa9ec38380facf98f1d884ac1c0bbe8e8bec874b7c8267f61d71e9a8d831d1",
                    "785a11dbc407dc7aab669032c3a0557035cab228601860e1435cfb492eee78b7"),
        "csp content": ("1343d3820bd3010fc6f45a8476abf1fd5819d239ccfb0aae1710faab566d7df0",
                        "d2550db7d5afaffacfe5a153b4d25449b8ab0ae7bd08b2c57b675a66725939cb"),
        "csp handshake": ("833a71e211ee593044df7f52874e3e022faeedcba253c42d6e8e269e1c89c622",
                          "5af715600742ccc364bb3eaa6f57eb79eacf2a64796e55a659bba6b41aa8478e"),
        "csp noncrossing": ("ea7c1882e4e797114e9280b8243a08da3980ca14b0c952ff37725c5af0c5e06e",
                            "3cbdc84c334aca7a34a8af3d6ad5ef1eee2ec6dc2b8c9680db0b6c4e8f27ee20"),
        "csp bnwords": ("15d5cba78b3164bcfb8ae053aff565d94ac5f21097f80d13ecd3fef5495ff71c",
                        "02fae3f46f1363c171415ba4eb49b77408cbf2b8f04d4a2f7819d750d66821a3"),
        "dihedral": ("246f9b830cc14cbebde044763779cf4ea3b3221096bdd619176e7c94b3c25b18",
                     "4302fbde4216bb1978b1605f3d28522f9301d3448fd33dfc8abda35ed9db5fda"),
        "kl": ("9afd3d83baee7b990d4647e7a8adf9b6c1a5e0dadb5cceb20119d76e3bc41acc",
               "2b678222de2c689e4ca8cc3c433912de4af5efd798772b20cc41412a39e3800d"),
        "kl table": ("dec8de73b046b772c1dbed26716ef39460463135fcc485068cd1d512a3367f4a",
                     "b37cbe884499d66048e0927b44fada8c180327e32e5518d8f3549224ff816c86"),
        "kl verify-promotion": ("d9cc4c44117e8d5c2a3062c692bad6a14cf7881f9059e2ff900b4c570ad25119",
                                "bc1fd9e17bc88af4a8ff83d93bb707c0c012d9f5a709e5de3cf74e1abad0da22"),
        "kl mu-invariance": ("615366d37d0164b9128e263fdc1e429eba6f12bd18f88a22efd2bb28e0e210be",
                             "ba5f3094c59edd05a65249227527dd9ed8292fa8b30f79fea33ec2263582a544"),
        "kl immanants": ("90fce40d1204cdf4cca4c248fbb10d27630e3c4b925ad03de8558189bf70242c",
                         "329d8c4310c4b900f9e2bc6f66176ef943e99040ef7d9caa1abfc55bd7a69f00"),
        "ribbon": ("85d3e485ab6bd0566abd00fdaf20e8a6303c31f7a96b0e9aaff77bc290efc067",
                   "499e21769ebd950508811c79e2c49c149b5566c64a08860bde9f1af206aeb705"),
        "ribbon count": ("312b72f24ffc2191aed3409b692878940df0c8745ac03e08285cd6a21a4c0e39",
                         "65c58b2e31e88b078300531e8214a5c82a0cfaf07f007d9240fd45725872d299"),
        "ribbon kf-check": ("a33c8d0a18d2837b7d203c6128856283982bec028faab7a9817e9a1ca31b810d",
                            "61b338c074c950039a52f8211f176c132d9094ceca0706df821d0392730c0cb9"),
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse lays out help differently across Python versions; "
                               "the digests were recorded under 3.11")
    def test_help_and_usage_errors_are_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        seen = {}
        for name in PARSERS:
            path = name.split()
            assert run(path + ["--help"]) == 0, name
            help_text = capsys.readouterr().out
            assert run(path) == 2, name
            usage_error = capsys.readouterr().err
            seen[name] = tuple(hashlib.sha256(text.encode()).hexdigest()
                               for text in (help_text, usage_error))
        assert seen == self.PINNED


class TestLeafRoute:
    """run() enters the parse tree at the leaf its argv names.  Every argv
    variant below parses there exactly as the whole tree parses it: the
    same exit code, stdout and stderr, and the same namespace."""

    # Per leaf: a valid call, and the argument that it cannot go without.
    CALLS = {
        "enumerate": ("syt --shape 2,2", "--shape 2,2"),
        "csp syt": ("--shape 2,2 --modulus 4", "--shape 2,2"),
        "csp cst": ("--shape 2,2 --bound 3", "--shape 2,2"),
        "csp content": ("--shape 2,2 --content 1,1,1,1 --power 2", "--shape 2,2"),
        "csp handshake": ("3", "3"),
        "csp noncrossing": ("3", "3"),
        "csp bnwords": ("2", "2"),
        "dihedral": ("--shape 2,2 --bound 3", "--shape 2,2"),
        "kl table": ("--rank 3", "--rank 3"),
        "kl verify-promotion": ("--shape 2,2", "--shape 2,2"),
        "kl mu-invariance": ("--shape 2,2 --cap 1000", "--shape 2,2"),
        "kl immanants": ("--rank 3", "--rank 3"),
        "ribbon count": ("--shape 2,2 --power 2 --content 1,1", "--shape 2,2"),
        "ribbon kf-check": ("--shape 2,2 --content 1,1,1,1 --power 2", "--shape 2,2"),
    }

    @classmethod
    def variants(cls, leaf: str) -> dict:
        """Variant -> (argv, exit code of its parse, or None for a namespace)."""
        call, required = cls.CALLS[leaf]
        path, args = leaf.split(), call.split()
        without = call.replace(required, "").split()
        flag, _, value = required.partition(" ")
        if value:  # a required option, e.g. --shape=2,2 and --sh 2,2
            equals, abbreviated = without + [f"{flag}={value}"], without + [flag[:4], value]
        else:  # a required positional, which may also follow "--"
            equals, abbreviated = args + ["--cap=50"], args + ["--ca", "50"]
        return {
            "valid": (path + args, None),
            "opt=value": (path + equals, None),
            "abbreviated": (path + abbreviated + ["--js"], None),
            "missing": (path + without, 2),
            "bad-int": (path + args + ["--cap", "x"], 2),
            "unknown": (path + args + ["--nope"], 2),
            "help": (path + ["-h"], 0),
            "no-value": (path + args + ["--cap"], 2),
            "dash-dash": (path + ["--"] + args, 2 if value else None),
            "option-first": (path[:-1] + ["--json"] + path[-1:] + args, 2),
        }

    def test_every_leaf_has_a_case(self):
        names = [" ".join(filter(None, (command, name))) for command, name, _, _ in cli.LEAVES]
        assert sorted(self.CALLS) == sorted(names) == sorted(LEAVES)
        assert sorted(" ".join(path) for path in cli.build_parser().leaves) == sorted(names)

    @staticmethod
    def _parse(capsys, parse, argv):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
        return outcome, *capsys.readouterr()

    @pytest.mark.parametrize("variant", [
        "valid", "opt=value", "abbreviated", "missing", "bad-int", "unknown", "help",
        "no-value", "dash-dash", "option-first",
    ])
    @pytest.mark.parametrize("leaf", LEAVES)
    def test_leaf_parses_as_the_tree(self, monkeypatch, capsys, leaf, variant):
        monkeypatch.setenv("COLUMNS", "80")
        argv, expected = self.variants(leaf)[variant]
        routed = self._parse(capsys, lambda a: cli.parse_args(cli.build_parser(), a), argv)
        whole = self._parse(capsys, cli.build_parser().parse_args, argv)
        assert routed == whole, argv
        if expected is None:
            assert isinstance(whole[0], dict), whole
        else:
            assert whole[0] == expected, whole
            assert run(argv) == expected
            out, err = capsys.readouterr()
            assert (out, err) == whole[1:] and "Traceback" not in err


class TestCapContract:
    """Every leaf subcommand honours ``--cap`` and ``CYCLOSIEVE_CAP``: on a
    small valid input, a cap of 1 makes it exit 2 with a one-line error.
    The leaves are read off the parser, so a new one needs a case here."""

    SMALL = {
        "enumerate": "syt --shape 2,2",
        "csp syt": "--shape 2,2",
        "csp cst": "--shape 2,2 --bound 3",
        "csp content": "--shape 2,2 --content 1,1,1,1 --power 2",
        "csp handshake": "3",
        "csp noncrossing": "3",
        "csp bnwords": "2",
        "dihedral": "--shape 2,2 --bound 3",
        "kl table": "--rank 3",
        "kl verify-promotion": "--shape 2,2",
        "kl mu-invariance": "--shape 2,2",
        "kl immanants": "--rank 3",
        "ribbon count": "--shape 2,2 --power 2 --content 1,1",
        "ribbon kf-check": "--shape 2,2 --content 1,1,1,1 --power 2",
    }
    # The documented exception: the ribbon count reads the abacus without
    # enumerating anything.
    CAP_FREE = {"ribbon count"}

    def test_every_leaf_has_a_case(self):
        assert sorted(self.SMALL) == sorted(LEAVES)
        assert self.CAP_FREE <= set(LEAVES)

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_cap_of_one(self, monkeypatch, capsys, leaf):
        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        argv = leaf.split() + self.SMALL[leaf].split()
        assert run(argv) == 0, argv
        capsys.readouterr()
        expected = 0 if leaf in self.CAP_FREE else 2
        for through_env in (False, True):
            if through_env:
                monkeypatch.setenv("CYCLOSIEVE_CAP", "1")
            code = run(argv if through_env else argv + ["--cap", "1"])
            err = capsys.readouterr().err
            assert code == expected, (argv, through_env)
            if expected:
                assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv, refusal", [
        ("csp syt --shape 99999999999999999999", "packed word entries"),
        ("csp syt --shape 20000", "residue terms"),
        ("csp syt --shape 50000", "residue terms"),
        ("csp cst --shape 20000 --bound 2", "packed word entries"),
        ("dihedral --shape 20000 --bound 2", "packed word entries"),
        ("csp handshake 30000", "exceed the cap"),
        ("csp handshake 300000", "exceed the cap"),
        ("csp bnwords 300", "exceed the cap"),
        ("csp bnwords 1000", "exceed the cap"),
    ])
    def test_oversized_inputs_exit_2_at_once(self, monkeypatch, capsys, argv, refusal):
        """Inputs far over the cap are refused with a one-line error: a row
        of 10^20 cells ended in an OverflowError traceback; 20,000 words of
        20,002 entries ran out of memory after 28 s; C_30000 and f^(300^300)
        were refused with a message about printing integers, and n = 300000
        and 1000 took 6.7 s and over 40 s.  One row of 20,000 or 50,000 cells
        is refused by its default modulus once the action is built, which
        took 4.0 s and 22.6 s while the strip filler's dominance test read
        the whole content prefix."""
        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert refusal in err, err

    @pytest.mark.parametrize("argv", [
        "kl table --rank 6 --cap 518399 --json",
        "kl table --rank 7",
        "kl immanants --rank 5 --cap 14399",
        "kl immanants --rank 7",
        "kl verify-promotion --shape 3,3 --cap 10",
        "kl verify-promotion --shape 7",
        "kl mu-invariance --shape 3,3 --cap 518399",
        "kl mu-invariance --shape 4,3",
    ])
    def test_kl_leaves_refuse_before_the_build(self, monkeypatch, capsys, argv):
        """A KL table over the cap is refused from its n!^2 Bruhat entries:
        no KLTable is built and no SYT enumerated, even when a table of that
        rank is already in the memo."""
        from cyclosieve import klcells

        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        klcells.kl_table(6)

        def refuse(*args, **kwargs):
            raise AssertionError("built or enumerated past the cap")

        monkeypatch.setattr(klcells, "_kl_table", refuse)
        monkeypatch.setattr(klcells, "enumerate_syt", refuse)
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "> cap" in err


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

    def test_kl_table_rank_5_dump_is_pinned(self, capsys):
        assert run(["kl", "table", "--rank", "5", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "c5006369c9b57a0080ad6371052d2cbd3d8736b11815bd23e657b2d625e3f81b"

    def test_kl_table_rank_5_text_dump_is_pinned(self, capsys):
        """Recorded while the dump was still built as a list of dicts."""
        assert run(["kl", "table", "--rank", "5"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "d9248c317224cc034faefa6a690cf72aca38a58733e0393a946f40d5a99a735f"

    def test_kl_table_rank_6_text_dump_is_pinned(self, capsys):
        """Recorded while each row was one f-string, before the row heads."""
        assert run(["kl", "table", "--rank", "6"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a1f6f27df5c440fe028dc5a446d5e992b627591b24b9e02e66627073c3a388fe"

    @pytest.mark.parametrize("argv, digest", [
        ("csp syt --shape 4^4 --json", "b1015585abcb602e42d5f80dd2d7c746f6c29a147719188df3000dc951769e59"),
        ("csp cst --shape 3,3 --bound 4 --json", "d1ad281816dd9c2a0b10bcaafcd49131f5b72b2b080c34373e2fd32d7f34eb8c"),
        ("csp content --shape 2,2,2 --content 1,2,1,2 --power 2 --json",
         "a68b8692ed1db582deddc87a2ce869b762755f806645cc27c6525d736ba3f66d"),
    ], ids=["syt-4^4", "cst-3,3-bound-4", "content-2,2,2-power-2"])
    def test_promotion_reports_are_pinned(self, capsys, argv, digest):
        """SHA-256 of outputs recorded before promotion moved to the set-level kernel."""
        assert run(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("shape, code, digest", [
        ("3,3,1", 1, "57ea84ec55f9e6a3621720744bc3b25a39544ffd0b681804c4cbf2b15ddbe300"),
        ("6,6,6", 0, "283057b93f520297f68b347db6bac9c26cf8db1acdec6a78f628b1df05cdd591"),
        ("200", 0, "d26b42b9bcfcb747a40ab01e511999036cd7e789f1d067cd62489de15d35f121"),
    ])
    def test_syt_reports_are_pinned(self, capsys, shape, code, digest):
        """SHA-256 of outputs recorded while the q-hook formula was still
        divided out of [n]!_q and the tableaux were enumerated as objects.
        3,3,1 is the documented failure (modulus 195); the single row of 200
        cells took about two minutes that way."""
        assert run(["csp", "syt", "--shape", shape, "--json"]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, code, digest", [
        ("kl verify-promotion --shape 3,3 --json", 0,
         "0f7281150aa0e133a60cd836a8fdac58c56b46e6c8e858bc64a7ce46b2c2bd69"),
        ("kl verify-promotion --shape 2,2,2 --json", 0,
         "396423fee1adac745346b52cc8a5aa7034aab9e884e536456e60c97d32da9a82"),
        ("kl mu-invariance --shape 3,3 --json", 0,
         "cc5a53f3669565b6a11de5a48cc1315b0dccfdbbb3b4f25824d7ec0c847e1471"),
        ("kl mu-invariance --shape 3,1 --json", 1,
         "b669130069b4a9cc8cb79a7b95920efa99063cdd71d4ebf690120b7db96cc7f5"),
    ], ids=["verify-3,3", "verify-2,2,2", "mu-3,3", "mu-3,1"])
    def test_kl_checks_are_pinned(self, capsys, argv, code, digest):
        """SHA-256 of outputs recorded while the KL checks promoted one
        tableau at a time; 3,1 is the documented failure, listed in full."""
        assert run(argv.split()) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        "kl verify-promotion --shape 3,3 --json",
        "kl verify-promotion --shape 2,2,2 --json",
        "kl mu-invariance --shape 3,3 --json",
        "kl mu-invariance --shape 3,1 --json",
    ])
    def test_kl_checks_enumerate_once_and_never_promote(self, monkeypatch, capsys, argv):
        """J and j(P) come from the set-level permutation of the one
        enumerated basis, not from the per-tableau promote of the oracles."""
        from cyclosieve import tableaux
        from oracles import jeudetaquin

        calls = {"enumerate_syt": 0, "promote": 0}
        for module, name in ((tableaux, "enumerate_syt"), (jeudetaquin, "promote")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for loaded in [m for key, m in sys.modules.items() if key.startswith(("cyclosieve", "oracles"))]:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, key, counted)
        run(argv.split())
        capsys.readouterr()
        assert calls == {"enumerate_syt": 1, "promote": 0}

    @pytest.mark.parametrize("argv, digest", [
        ("dihedral --shape 2,2 --bound 3 --json", "7ec9e00dae183c4051429688c81fec9441f5bc1c7e197f998aa06b1006ab1704"),
        ("dihedral --shape 3,3 --bound 4 --json", "b742eaad7ca0a061397b7ce523a00195759e26457769963fd7c5ef72f20ae932"),
        ("dihedral --shape 1,1,1 --bound 2 --json", "8b22f6d15f631bc039c5ae65f5e66dd43f9e42b732f7bec463e0987fef8cd972"),
        ("dihedral --shape 2,2,2 --bound 4 --json", "6143b564ed80137020c3a22d7fdd16ea6be06cf6ca7872c80edbf5d6fc9665c8"),
        ("dihedral --shape 3,3,3 --bound 6 --json", "8e6d52e27871f8551075a666e4b82f6e180a8b1ef7303f5273ce18dabf1be2db"),
        ("dihedral --shape '' --bound 0 --json", "3946b6b00a88e042e99841ffbba950911fbf853cc74c86763f85655f01b82b5e"),
        ("csp cst --shape 3,3 --bound 6 --json", "77cd197eea9f6f0c4a84a3a5256b8cfb0069a53cd24ee374650ea7a4eb648d47"),
        ("csp cst --shape 2,2,2 --bound 5 --json", "b280a5c32eb9b3d3ebea101f77c84bbf9f2d2416672acbe0601eb9ef145529da"),
    ], ids=["dihedral-2,2-bound-3", "dihedral-3,3-bound-4", "dihedral-1,1,1-bound-2",
            "dihedral-2,2,2-bound-4", "dihedral-3,3,3-bound-6", "dihedral-empty-bound-0",
            "cst-3,3-bound-6", "cst-2,2,2-bound-5"])
    def test_cst_predictions_are_pinned(self, capsys, argv, digest):
        """SHA-256 of outputs recorded while the CST predictions were still
        summed over enumerated tableaux and evacuation ran per tableau.  1,1,1
        with bound 2 has more rows than the bound; 2,2,2 and 3,3,3 with even
        bounds take the repeated-sign (Pieri) form."""
        assert run(shlex.split(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_cst_and_dihedral_verdicts_build_no_tableau(self, monkeypatch, capsys):
        """No ``csp cst`` or ``dihedral`` verdict builds a Tableau or calls
        evacuate, and none enumerates on its predicted side: with all three
        made to raise, every run on every rectangle of at most 8 cells still
        passes.  ``csp cst`` starts at bound 1, since its bound is the modulus,
        and it refuses a bound of 0 as a usage error."""
        from cyclosieve import qpolys
        from cyclosieve.tableaux import Tableau
        from oracles.jeudetaquin import evacuate

        def forbidden(*args, **kwargs):
            raise AssertionError("called while reaching a verdict")

        for loaded in [m for key, m in sys.modules.items() if key.startswith(("cyclosieve", "oracles"))]:
            for key, value in list(vars(loaded).items()):
                if value is evacuate:
                    monkeypatch.setattr(loaded, key, forbidden)
        monkeypatch.setattr(qpolys, "enumerate_cst", forbidden)
        monkeypatch.setattr(Tableau, "_trusted", classmethod(forbidden))
        for lam in rectangles_up_to(8):
            shape = ",".join(map(str, lam))
            for k in range(7):
                for verb in [["dihedral"], ["csp", "cst"]] if k else [["dihedral"]]:
                    for json_flag in ([], ["--json"]):
                        argv = verb + ["--shape", shape, "--bound", str(k)] + json_flag
                        assert run(argv) == 0, argv
        capsys.readouterr()

    def test_one_row_at_bound_zero_predicts_integer_zeros(self, capsys):
        """CST((3,), 0) is empty; its predictions are the integer 0."""
        code, data = self._json(capsys, ["dihedral", "--shape", "3", "--bound", "0", "--json"])
        assert code == 0 and data["verdict"] is True
        assert data["cst"] == {"e": {"fixed": 0, "expected": 0}, "ej": {"fixed": 0, "expected": 0}}
        assert all(type(v) is int for op in data["cst"].values() for v in op.values())

    def test_kl_promotion_signs_are_integers(self, capsys):
        for lam in rectangles_up_to(6):
            argv = ["kl", "verify-promotion", "--shape", ",".join(map(str, lam)), "--json"]
            code, data = self._json(capsys, argv)
            assert code == 0 and data["verdict"] is True, argv
            assert type(data["sign"]) is int and type(data["kl_basis_coefficient"]) is int, argv

    def test_stability_across_runs(self, capsys):
        run(["csp", "handshake", "4", "--json"])
        first = capsys.readouterr().out
        run(["csp", "handshake", "4", "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestReportOutput:
    @pytest.mark.parametrize("argv, code, digest", [
        ("dihedral --shape 2,2 --bound 3", 0,
         "5cb9447db831dd65807d8ae97b391eb74fbf1b7c38174598eb8b2d8416034b6f"),
        ("kl verify-promotion --shape 3,3", 0,
         "a67554ff7ef55d349c0cde9c27ae4df2fb39129da730e5f432978180dc407e43"),
        ("kl mu-invariance --shape 3,1", 1,
         "daa1de31659b5a2c70bb8081404d964116c6d20108cc65461ff965a794689840"),
        ("csp content --shape 2,2,2 --content 1,2,1,2 --power 2", 0,
         "c69fd043b4774e1333b31968cf057f72db70dfceb20e42871ca7ed9b0da0635c"),
        ("csp syt --shape 3,3,1", 1,
         "0b3298061512e95429f6396cc7a320a9ed07abbb002dcc4901d724a08f661169"),
        ("kl immanants --rank 3", 0,
         "fb805a7360108510519e0cc3182cafc150ec423647003a5a338f9c55d7e62a7e"),
        ("kl immanants --rank 3 --json", 0,
         "bdfaab0531c007d84a97451259af790ee8a204e66521a1b3ead252f530bbe538"),
        ("ribbon kf-check --shape 2,2 --content 1,1,1,1 --power 2", 0,
         "805fa3a23e4f67ee9384b36eebd4695cdfae33064ced06addaf56736f8bbac92"),
        ("ribbon kf-check --shape 2,2 --content 1,1,1,1 --power 2 --json", 0,
         "7273b0c0862c831a101ec07dc3034ac5cfea49712d9d7c8c4b953d0833cbfa3f"),
        ("ribbon kf-check --shape 4 --content 3,1 --power 2", 1,
         "0306fd1bb3d8b9acb8e47af58e91c77d9b42fd7a7b6e12afd3cd3e8e2378954c"),
        ("ribbon kf-check --shape 4 --content 3,1 --power 2 --json", 1,
         "803ef945d5570d94589a3a08b3e9890cf1b9b4d73c40c3fe00eaaf8150144366"),
        ("enumerate cst --shape 3,2,2 --bound 5 --json", 0,
         "614267a8e84ee46a23d9a1ba527efcebb4259f9e878112bd8873025d2ed1408f"),
        ("enumerate cst --shape 3,3 --bound 4 --content 2,1,2,1 --json", 0,
         "a395c9213bfe4cc13fe04ae7cfa30f65c72fffe7f9fb3a9b46a59541881b7ab0"),
        ("enumerate rst --shape 3,2 --bound 4 --json", 0,
         "a7c3c55673f2103dbf61a4d7fba7f36178a3352635774e8bfc17d1a6dec12fa5"),
        ("enumerate rst --shape 2,2,1 --bound 3 --content 2,2,1 --json", 0,
         "e5027e9c4fdd1824335fc0149d718c10b58b9794e2d0ab6024735a05bb628cee"),
        ("enumerate syt --shape 4,3,1 --json", 0,
         "b15b5c11c76aa7cbc2e8fd07217e3ba26b366d76dc394495b0c97d04ed822485"),
    ], ids=["dihedral-text", "verify-3,3-text", "mu-3,1-text", "content-power-2-text",
            "syt-3,3,1-text", "immanants-3-text", "immanants-3-json", "kf-divisible-text",
            "kf-divisible-json", "kf-note-text", "kf-note-json", "enumerate-cst-json",
            "enumerate-cst-content-json", "enumerate-rst-json", "enumerate-rst-content-json",
            "enumerate-syt-json"])
    def test_reports_are_pinned(self, capsys, argv, code, digest):
        """SHA-256 of outputs recorded while each report was a dataclass
        with its own ``to_dict``.  Text mode prints the payload's keys in
        insertion order, so these pin that order; mu-invariance on 3,1 lists
        its failures, 3,3,1 prints ``eval_repr`` rows, and kf-check on (4)
        with content 3,1 takes the branch that ends in ``note``.  The
        ``enumerate`` digests were recorded while CST(shape, k) was filled
        cell by cell and every fixed content value by value."""
        assert run(argv.split()) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
        assert run(["kl", "immanants", "--rank", "3", "--cap", "36"]) == 0
        assert run(["kl", "immanants", "--rank", "3", "--cap", "35"]) == 2

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
        monkeypatch.setenv("CYCLOSIEVE_CAP", "131")
        assert run(["csp", "handshake", "6"]) == 2
        assert run(["csp", "noncrossing", "6"]) == 2
        monkeypatch.setenv("CYCLOSIEVE_CAP", "1000")
        assert run(["enumerate", "syt", "--shape", "4,4,4"]) == 0
        assert run(["csp", "syt", "--shape", "2^4"]) == 0
        assert run(["csp", "handshake", "6"]) == 0
        assert run(["csp", "noncrossing", "6"]) == 0
        assert run(["kl", "verify-promotion", "--shape", "2,2"]) == 0
        assert run(["kl", "mu-invariance", "--shape", "2,2"]) == 0
        assert run(kf_check) == 0


class TestEmptyShape:
    def test_csp_syt_takes_modulus_one(self, capsys):
        assert run(["csp", "syt", "--shape", "", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 1 and data["verdict"] is True
        assert data["rows"] == [{"d": 0, "fixed": 1, "eval": 1, "eval_repr": "(1)", "match": True}]

    def test_kl_promotion_identity_rejects_it(self, capsys):
        """The identity concerns a x b rectangles with a >= 1."""
        assert run(["kl", "verify-promotion", "--shape", "", "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_dihedral_counts_the_empty_tableau(self, capsys):
        for k in range(4):
            assert run(["dihedral", "--shape", "", "--bound", str(k), "--json"]) == 0, k
            data = json.loads(capsys.readouterr().out)
            for family in ("cst", "syt"):
                for op in ("e", "ej"):
                    assert data[family][op] == {"fixed": 1, "expected": 1}, (k, family, op)

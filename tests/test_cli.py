"""Command-line surface: subcommands, exit codes, JSON schemas,
deterministic output, and the documented golden invocations."""

import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppinv import (cli, family_from_descriptor, field_to_json,
                   parse_poly_expr, tabulate)
from ppinv.errors import CertificationFailed

from helpers import (ACCEPTANCE_FIELDS, add_instances, expressions, field_of,
                     hybrid_instances, mul_instances, niu_instances,
                     reference_add, reference_mul, reference_neg,
                     reference_pow, translator_instances)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "ppinv", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestDocumentedInvocations:
    def test_check_pp_cube_f7(self):
        code, out, _ = run_cli("check-pp", "--p", "7", "--n", "1",
                               "--expr", "x^3")
        assert code == 1
        assert json.loads(out) == {"is_permutation": False,
                                   "collision": [1, 2]}

    def test_invert_mul_f7(self):
        code, out, _ = run_cli("invert", "--family", "mul", "--p", "7",
                               "--n", "1", "--r", "1", "--s", "3",
                               "--h", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"table": [0, 5, 3, 1, 6, 4, 2], "poly": "5*x",
                       "certified": True}

    def test_involution_kuozhan_file(self):
        code, out, _ = run_cli("involution", "--family", "mul", "--file",
                               str(GOLDEN / "kuozhan_q4.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["is_involution"] is True
        assert doc["oracle_agrees"] is True


class TestGoldenByteEquality:
    CASES = [
        (("check-pp", "--p", "7", "--n", "1", "--expr", "x^3"),
         "check_pp_x3_f7.json", 1),
        (("invert", "--family", "mul", "--p", "7", "--n", "1", "--r", "1",
          "--s", "3", "--h", "3"), "invert_mul_f7.json", 0),
        (("involution", "--family", "mul", "--file",
          str(GOLDEN / "kuozhan_q4.json")), "involution_kuozhan_q4.json", 0),
    ]

    @pytest.mark.parametrize("args,golden,code", CASES)
    def test_byte_identical_to_golden(self, args, golden, code):
        got_code, out, _ = run_cli(*args)
        assert got_code == code
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("args,golden,code", CASES)
    def test_repeat_runs_identical(self, args, golden, code):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


class TestFieldAndInterpolate:
    def test_field_summary(self):
        code, out, _ = run_cli("field", "--p", "3", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"p": 3, "n": 2, "q": 9,
                                   "modulus": [1, 0, 1]}

    def test_field_from_file(self, tmp_path):
        spec = tmp_path / "field.json"
        spec.write_text('{"p": 2, "n": 3}')
        code, out, _ = run_cli("field", "--field-file", str(spec))
        assert code == 0 and json.loads(out)["q"] == 8

    def test_interpolate_table(self):
        code, out, _ = run_cli("interpolate", "--p", "7", "--n", "1",
                               "--table", "0,5,3,1,6,4,2")
        assert code == 0 and json.loads(out) == {"poly": "5*x"}

    def test_invert_interpolate_checkpp_round_trip(self):
        _, out, _ = run_cli("invert", "--family", "mul", "--p", "7",
                            "--n", "1", "--r", "1", "--s", "3", "--h", "3")
        table = json.loads(out)["table"]
        _, out2, _ = run_cli("interpolate", "--p", "7", "--n", "1",
                             "--table", ",".join(map(str, table)))
        poly = json.loads(out2)["poly"]
        code, out3, _ = run_cli("check-pp", "--p", "7", "--n", "1",
                                "--expr", poly)
        assert code == 0
        assert json.loads(out3) == {"is_permutation": True}

    def test_inverse_of_x_over_f2_is_a_permutation(self):
        code, out, _ = run_cli("check-pp", "--p", "2", "--expr", "x^-1")
        assert code == 0 and json.loads(out) == {"is_permutation": True}


class TestDescriptorFiles:
    def test_invert_translator_descriptor(self, tmp_path):
        from helpers import field_of, rel_trace
        ctx = field_of(9)
        lam = [rel_trace(ctx, 1, x) for x in ctx.elements()]
        doc = {"family": "translator", "field": {"p": 3, "n": 2},
               "lambda": lam, "gamma": 2, "b": 1, "G": "x"}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("invert", "--file", str(path))
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_invert_niu_descriptor(self, tmp_path):
        doc = {"family": "niu", "field": {"p": 3, "n": 2},
               "q": 3, "g": "x", "i": 1, "c": 1, "delta": 0}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("invert", "--file", str(path))
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_invert_niu_permuting_lambda_image_only(self, tmp_path, capsys):
        # with c = 1, h(y) = g(y)^3 - g(y) + y collides on F (2, 5 and 8
        # all map to 2) but permutes S = lambda(F), so f permutes F
        doc = {"family": "niu", "field": {"p": 3, "n": 2}, "q": 3,
               "g": "6 + 7*x + x^2", "i": 1, "c": 1, "delta": 7}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["invert", "--file", str(path)]) == 0
        f = (3, 4, 5, 8, 6, 7, 2, 0, 1)
        inverse = [f.index(x) for x in range(9)]
        assert json.loads(capsys.readouterr().out)["table"] == inverse

    def test_agw_verify(self, tmp_path):
        lam = [(x * x) % 7 for x in range(7)]
        S = sorted(set(lam))
        doc = {"field": {"p": 7, "n": 1},
               "f": [(2 * x) % 7 for x in range(7)],
               "lambda": lam, "lambda_bar": lam,
               "g": [[s, (4 * s) % 7] for s in S],
               "S": S, "S_bar": S}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("agw-verify", "--file", str(path))
        assert code == 0
        doc_out = json.loads(out)
        assert doc_out["f_bijective"] and doc_out["lemma_consistent"]

    def test_agw_verify_size_mismatch(self, tmp_path):
        lam = [0] * 4
        doc = {"field": {"p": 2, "n": 2}, "f": [0, 1, 2, 3],
               "lambda": lam, "lambda_bar": lam, "g": [[0, 0]],
               "S": [0], "S_bar": [0, 1]}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("agw-verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["error"] == "SizeMismatch"


class TestErrorsAndExitCodes:
    def test_mathematical_rejection_embeds_name_and_witness(self):
        code, out, _ = run_cli("invert", "--family", "mul", "--p", "7",
                               "--n", "1", "--r", "2", "--s", "3",
                               "--h", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "NotPermutation"
        assert doc["witness"] == [1, 6]

    @pytest.mark.parametrize("doc", [
        {"family": "hybrid", "field": {"p": 3, "n": 2}, "h": "x^2 + x + 2",
         "k": "x", "lambda": "Tr{1}(x)", "S": [0, 1, 2]},
        {"family": "translator", "field": {"p": 2, "n": 4},
         "lambda": "Tr{2}(x)", "gamma": 2, "b": 11, "G": "x^2"}],
        ids=["hybrid", "translator"])
    def test_small_set_rejection_names_the_collision(self, doc, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("invert", "--file", str(path))
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "NotPermutation"
        _, fam = family_from_descriptor(doc)
        a, b = rep["witness"]
        assert a != b and fam.g_map[a] == fam.g_map[b]

    def test_involution_of_invalid_niu_exit_1(self, tmp_path, capsys):
        # c = 5 lies outside GF(3): the record refuses it on loading, as
        # it does for invert, before any criterion is looked up
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": "niu", "field": {"p": 3,
                                    "n": 2}, "q": 3, "g": "x", "i": 1,
                                    "c": 5, "delta": 0}))
        assert cli.run(["involution", "--file", str(path)]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "NotInSubfield" and rep["witness"] == 5

    def test_involution_of_valid_niu_exit_2(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": "niu", "field": {"p": 3,
                                    "n": 2}, "q": 3, "g": "x", "i": 1,
                                    "c": 1, "delta": 0}))
        assert cli.run(["involution", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "no involution criterion" in err

    def test_syntax_error_exit_2(self):
        code, out, err = run_cli("check-pp", "--p", "7", "--n", "1",
                                 "--expr", "x^^2")
        assert code == 2 and out == "" and "position" in err

    @pytest.mark.parametrize("expr,message", [
        ("9*x", "constant 9 out of range for q = 4"),
        ("Tr{3}(x)", "trace degree 3 does not divide n = 2"),
        ("(" * 2000 + "x" + ")" * 2000, "nested too deeply"),
        ("Tr{1}(" * 2000 + "x" + ")" * 2000, "nested too deeply"),
        # the grammar's digits are ASCII 0-9, not every Unicode digit
        ("x^\u0663", "expected an integer at position 2"),
        ("x^\u00b2", "expected an integer at position 2")],
        ids=["constant", "trace-degree", "parentheses", "traces",
             "arabic-indic-digit", "superscript-digit"])
    def test_bad_expression_exit_2(self, expr, message):
        code, out, err = run_cli("check-pp", "--p", "2", "--n", "2",
                                 "--expr", expr)
        assert code == 2 and out == "" and message in err
        assert "Traceback" not in err

    def test_long_sum_exit_0(self):
        # 3000 x = 4x over GF(7); a sum folds in a loop, however long
        code, out, err = run_cli("check-pp", "--p", "7",
                                 "--expr", "+".join(["x"] * 3000))
        assert code == 0 and json.loads(out) == {"is_permutation": True}
        assert "Traceback" not in err

    def test_missing_field_source_exit_2(self):
        code, _, err = run_cli("check-pp", "--expr", "x")
        assert code == 2 and "field source" in err

    def test_both_field_sources_exit_2(self, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text('{"p": 5, "n": 1}')
        code, _, _ = run_cli("check-pp", "--p", "5", "--expr", "x",
                             "--field-file", str(spec))
        assert code == 2

    def test_unknown_flag_exit_2(self):
        code, _, _ = run_cli("field", "--p", "5", "--wat")
        assert code == 2

    def test_seed_is_a_search_option_only(self, capsys):
        # --seed is read by search alone, which echoes it in its report
        assert run_cli("field", "--p", "2", "--seed", "1")[0] == 2
        for argv in (["check-pp", "--p", "2", "--expr", "x"],
                     ["invert", "--family", "mul", "--p", "7", "--r", "1",
                      "--s", "3", "--h", "3"],
                     ["involution", "--file", str(GOLDEN / "kuozhan_q4.json")],
                     ["agw-verify", "--file", "diagram.json"],
                     ["interpolate", "--p", "2", "--table", "0,1"]):
            with pytest.raises(SystemExit) as exc:
                cli.run([*argv, "--seed", "1"])
            assert exc.value.code == 2
        assert cli.run(["search", "--p", "2", "--limit", "1",
                        "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_missing_file_exit_2(self):
        code, _, _ = run_cli("invert", "--file", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["invert", "--file"], ["involution", "--file"],
        ["agw-verify", "--file"], ["interpolate", "--p", "2", "--file"],
        ["field", "--field-file"]])
    def test_directory_as_file_exit_2(self, argv, tmp_path, capsys):
        assert cli.run([*argv, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ppinv: ") and "Traceback" not in err

    def test_not_prime_rejection(self):
        code, out, _ = run_cli("field", "--p", "6")
        assert code == 1 and json.loads(out)["error"] == "NotPrime"

    @pytest.mark.parametrize("doc", [
        {"family": "translator", "field": {"p": 3, "n": 2},
         "lambda": "Tr{1}(x)", "gamma": -1, "b": 1, "G": "x"},
        {"family": "translator", "field": {"p": 3, "n": 2},
         "lambda": "Tr{1}(x)", "gamma": 99, "b": 1, "G": "x"},
        {"family": "translator", "field": {"p": 3, "n": 2},
         "lambda": "Tr{1}(x)", "gamma": 2, "b": 9, "G": "x"},
        {"family": "niu", "field": {"p": 3, "n": 2},
         "q": 3, "g": "x", "i": 1, "c": 1, "delta": 50},
        {"family": "niu", "field": {"p": 3, "n": 2},
         "q": 3, "g": "x", "i": 1, "c": -2, "delta": 0},
        {"family": "hybrid", "field": {"p": 3, "n": 2},
         "h": "x^2 + 1", "k": "x^2", "lambda": "x^4", "S": [0, 1, 2, 77]},
        {"family": "add", "field": {"p": 2, "n": 2}, "g": "x",
         "lambda": "Tr{1}(x)", "g0": {"0": 0, "1": 4}},
        {"family": "add", "field": {"p": 2, "n": 2}, "g": "x",
         "lambda": "Tr{1}(x)", "g0": {"0": 0, "1": 0, "-1": 0}},
        # nothing is coerced: a float, a bool, a string, null or a list
        # is no integer
        *({"family": "translator", "field": {"p": 3, "n": 2},
           "lambda": "Tr{1}(x)", "gamma": gamma, "b": 1, "G": "x"}
          for gamma in (1.5, True, "3", [2], None)),
        *({"family": "niu", "field": {"p": 3, "n": 2}, "g": "x",
           "q": 3, "i": 1, "c": 1, "delta": 0, **bad}
          for bad in ({"c": None}, {"c": 1.9}, {"q": 4.2}, {"q": 3.0},
                      {"i": 1.0}, {"delta": False})),
        {"family": "mul", "field": {"p": 7}, "r": 1.7, "s": 3, "h": "x^2"},
        {"family": "mul", "field": {"p": 7.9}, "r": 1, "s": 3, "h": "x^2"},
        {"family": "mul", "field": {"p": 7, "n": 1.0}, "r": 1, "s": 3,
         "h": "x^2"},
        {"family": "hybrid", "field": {"p": 3, "n": 2},
         "h": "x^2 + 1", "k": "x^2", "lambda": "x^4", "S": 5},
        {"family": "add", "field": {"p": 2, "n": 2}, "g": "x",
         "lambda": "Tr{1}(x)", "g0": [0, 1]},
        {"family": "add", "field": {"p": 2, "n": 2}, "g": [0, 1, 2, 3.0],
         "lambda": "Tr{1}(x)", "g0": "x"},
        # a document or field that is no object, and a value table of the
        # wrong length, are bad input too
        {"family": "mul", "field": 5, "r": 1, "s": 3, "h": "x^2"},
        {"family": "mul", "field": [7], "r": 1, "s": 3, "h": "x^2"},
        [1],
        {"family": "mul", "field": {"p": 7}, "r": 1, "s": 3, "h": [1, 2]},
    ])
    def test_out_of_range_descriptor_scalar_exit_2(self, tmp_path, capsys,
                                                   doc):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["invert", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "out of range" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("table", [
        ["a", 1, 2, 3], [0, 1.0, 2, 3], [0, True, 2, 3], [0, None, 2, 3],
        {"0": 0}, 7])
    def test_bad_interpolation_table_exit_2(self, tmp_path, capsys, table):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(table))
        assert cli.run(["interpolate", "--p", "2", "--n", "2",
                        "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad input" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("h", [[1, 1.0, 1, 1, 1, 1, 1], ["3"] * 7, 3])
    def test_bad_value_table_polynomial_exit_2(self, tmp_path, capsys, h):
        doc = {"family": "mul", "field": {"p": 7, "n": 1},
               "r": 1, "s": 3, "h": h}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["invert", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad input" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("g", [
        [[0, 0], [1]], [[0, 0], [1, 1, 2]], [[0, 0], [1, 1.5]],
        [[0, 0], [1, "1"]], [[0, 0], [True, 1]], [[0]], [0, 0], 5])
    def test_malformed_agw_g_exit_2(self, tmp_path, capsys, g):
        doc = {"field": {"p": 2, "n": 1}, "f": [0, 1], "lambda": [0, 1],
               "lambda_bar": [0, 1], "g": g, "S": [0, 1], "S_bar": [0, 1]}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["agw-verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad input" in err
        assert "Traceback" not in err

    # "1" and "01" are one element: whichever came last would win
    @pytest.mark.parametrize("g0", [{"0": 0, "1": 0, "01": 1},
                                    {"0": 0, "01": 1, "1": 0}])
    def test_repeated_g0_key_exit_2(self, tmp_path, capsys, g0):
        doc = {"family": "add", "field": {"p": 2, "n": 2}, "g": "x",
               "lambda": "Tr{1}(x)", "g0": g0}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["invert", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "g0 names the element 1 more than once" in err

    @pytest.mark.parametrize("g", [[[0, 0], [1, 1], [1, 0]],
                                   [[0, 0], [1, 0], [1, 1]]])
    def test_repeated_agw_g_pair_exit_2(self, tmp_path, capsys, g):
        doc = {"field": {"p": 2, "n": 1}, "f": [0, 1], "lambda": [0, 1],
               "lambda_bar": [0, 1], "g": g, "S": [0, 1], "S_bar": [0, 1]}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["agw-verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "g names the element 1 more than once" in err

    @pytest.mark.parametrize("override", [
        {"S": 5}, {"S_bar": 5},
        {"lambda": [0, 0, 0], "S": [0, 7], "g": [[0, 0], [7, 0]]},
        {"lambda": [0, 1, 1], "S": [0, 1, -1],
         "g": [[0, 0], [1, 1], [-1, 2]]},
        {"S_bar": [0, 1, 2.0]}, {"S": [False, 1, 2]}, {"S_bar": "012"},
        {"S": {"0": 0, "1": 1, "2": 2}}, {"f": [0, 1.5, 2]},
        {"lambda": [0, 1, 2.0]}, {"lambda_bar": 5}, {"field": 3},
        {"field": [3, 1]}])
    def test_malformed_agw_sets_exit_2(self, tmp_path, capsys, override):
        doc = {"field": {"p": 3, "n": 1}, "f": [0, 1, 2],
               "lambda": [0, 1, 2], "lambda_bar": [0, 1, 2],
               "g": [[0, 0], [1, 1], [2, 2]], "S": [0, 1, 2],
               "S_bar": [0, 1, 2], **override}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["agw-verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad input" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["involution", "--file"], ["agw-verify", "--file"],
        ["field", "--field-file"],
        ["interpolate", "--table", "0", "--field-file"]])
    @pytest.mark.parametrize("doc", [[1], 5, "x", None])
    def test_document_not_an_object_exit_2(self, tmp_path, capsys, argv,
                                           doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.run([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", [
        {"p": 2 ** 61 - 1},           # a Mersenne prime: no trial division
        {"p": 2 ** 61 + 1, "n": 1},   # huge and composite: TooLarge too
        {"p": 3, "n": 10 ** 8},       # no 3^(10^8) is ever built
        {"p": 2, "n": 21}])
    def test_field_beyond_the_bound_exit_1_at_once(self, tmp_path, capsys,
                                                   field):
        doc = {"family": "mul", "field": field, "r": 1, "s": 1, "h": "1"}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert cli.run(["invert", "--file", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"

    def test_certification_failure_exit_3(self, monkeypatch, capsys):
        def forged(fam):
            raise CertificationFailed("inverse misses 4", witness=4)
        monkeypatch.setattr(cli, "invert", forged)
        assert cli.run(["invert", "--family", "mul", "--p", "7", "--r", "1",
                        "--s", "3", "--h", "3"]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out) == {"error": "CertificationFailed",
                                   "message": "inverse misses 4",
                                   "witness": 4}
        assert err == ""

    def test_crash_exit_3_with_traceback(self, monkeypatch, capsys):
        def crash(ctx, table):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "interpolate", crash)
        assert cli.run(["interpolate", "--p", "7",
                        "--table", "0,1,2,3,4,5,6"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" in err and "RuntimeError: boom" in err

class TestDispatch:
    def test_handlers_resolve_functions_at_call_time(self, monkeypatch,
                                                     capsys):
        # tracers wrap the module attributes after import; the subcommands
        # must call whatever those attributes hold when they run
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(fam):
                calls.append(name)
                return real(fam)
            monkeypatch.setattr(cli, name, wrapper)

        spy("invert")
        spy("check_mul_involution")
        assert cli.run(["invert", "--family", "mul", "--p", "7", "--r", "1",
                        "--s", "3", "--h", "3"]) == 0
        assert cli.run(["involution", "--family", "mul", "--file",
                        str(GOLDEN / "kuozhan_q4.json")]) == 0
        assert calls == ["invert", "check_mul_involution"]
        assert capsys.readouterr().out.splitlines() == [
            (GOLDEN / "invert_mul_f7.json").read_text().strip(),
            (GOLDEN / "involution_kuozhan_q4.json").read_text().strip()]


class TestSearchAndFormats:
    def test_search_reports_bound(self):
        code, out, _ = run_cli("search", "--p", "7", "--n", "1",
                               "--limit", "2000")
        assert code == 0
        doc = json.loads(out)
        assert doc["examined"] == 2000 and not doc["exhausted"]
        assert doc["found"], "expected at least one valid family"
        first = doc["found"][0]
        assert first == {"r": 1, "s": 1, "h": "1"}

    @pytest.mark.parametrize("limit,exhausted", [(6, False), (7, True),
                                                 (8, True)])
    def test_search_exhausted_at_the_bound(self, capsys, limit, exhausted):
        # GF(2) has exactly 7 candidates: s = r = 1 and the 7 nonzero h
        assert cli.run(["search", "--p", "2", "--limit", str(limit)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["examined"] == min(limit, 7)
        assert doc["exhausted"] is exhausted

    def test_search_deterministic(self):
        args = ("search", "--p", "5", "--n", "1", "--limit", "700")
        assert run_cli(*args) == run_cli(*args)

    def test_text_format(self):
        code, out, _ = run_cli("field", "--p", "5", "--n", "1",
                               "--format", "text")
        assert code == 0
        assert "q: 5" in out and "modulus: [0, 1]" in out


def _table(q, expr):
    return tabulate(parse_poly_expr(expr, field_of(q)))


# One valid document per family and one diagram; the property test below
# replaces their integers and lists by drawn values.
_DOCUMENTS = [
    ("invert", {"family": "mul", "field": {"p": 7, "n": 1}, "r": 1, "s": 3,
                "h": _table(7, "x^2")}),
    ("involution", {"family": "add", "field": {"p": 2, "n": 2},
                    "g": [0, 1, 2, 3], "lambda": _table(4, "Tr{1}(x)"),
                    "lambda_bar": _table(4, "Tr{1}(x)"),
                    "g0": {"0": 0, "1": 0}}),
    ("invert", {"family": "hybrid", "field": {"p": 3, "n": 2},
                "h": "x^2 + 1", "k": "x^2", "lambda": _table(9, "x^4"),
                "S": [0, 1, 2]}),
    ("invert", {"family": "translator", "field": {"p": 3, "n": 2},
                "lambda": _table(9, "Tr{1}(x)"), "gamma": 2, "b": 1,
                "G": "x"}),
    ("invert", {"family": "niu", "field": {"p": 3, "n": 2}, "q": 3,
                "g": "x", "i": 1, "c": 1, "delta": 0}),
    ("agw-verify", {"field": {"p": 3, "n": 1}, "f": [0, 2, 1],
                    "lambda": [0, 1, 2], "lambda_bar": [0, 1, 2],
                    "g": [[0, 0], [1, 2], [2, 1]], "S": [0, 1, 2],
                    "S_bar": [0, 1, 2]}),
]


def _scalars(ints):
    """In- and out-of-range ints, floats, bools, numeric strings, null and
    lists: everything a JSON number slot can be handed."""
    return st.one_of(ints, st.floats(), st.booleans(), ints.map(str),
                     st.none(), st.lists(st.integers(-1, 9), max_size=2))


def _mutate(data, node, ints):
    # an object (the document itself, or its "field") may be replaced too
    if isinstance(node, (int, list, dict)) and \
            data.draw(st.integers(0, 7)) == 0:
        return data.draw(_scalars(ints))
    if isinstance(node, dict):
        # field sizes stay small, so that no large field is built
        return {k: _mutate(data, v, st.integers(-2, 3) if k == "field"
                           else ints) for k, v in node.items()}
    if isinstance(node, list):
        return [_mutate(data, v, ints) for v in node]
    return node


class TestBoundaryProperty:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    def test_any_number_is_exit_0_1_or_2_without_traceback(self, data):
        command, doc = data.draw(st.sampled_from(_DOCUMENTS))
        doc = _mutate(data, doc, st.integers(-2, 20))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run([command, "--file", str(path)])
        assert code in (0, 1, 2), (code, doc, err.getvalue())
        assert "Traceback" not in err.getvalue(), doc
        if code == 2:
            assert out.getvalue() == "", doc
        else:
            json.loads(out.getvalue())


def _text(poly):
    """A polynomial in the grammar, written from its coefficients."""
    return " + ".join(f"{c}*x^{e}" for e, c in enumerate(poly.coeffs)
                      if c) or "0"


def _reference_eval(ctx, poly, x):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = reference_add(ctx, reference_mul(ctx, acc, x), c)
    return acc


def _descriptor_and_forward(kind, fam):
    """The descriptor of a family instance, and its forward table computed
    with the reference arithmetic from the descriptor's own parameters."""
    ctx = fam.ctx
    doc = {"family": kind, "field": field_to_json(ctx)}
    add, mul = (lambda a, b: reference_add(ctx, a, b),
                lambda a, b: reference_mul(ctx, a, b))

    def ev(poly, x):
        return _reference_eval(ctx, poly, x)

    if kind == "mul":
        doc.update(r=fam.r, s=fam.s, h=_text(fam.h))
        f = [mul(reference_pow(ctx, x, fam.r),
                 ev(fam.h, reference_pow(ctx, x, fam.s)))
             for x in range(ctx.q)]
    elif kind == "add":
        doc.update(g=list(fam.g), g0={str(k): v for k, v in fam.g0.items()})
        doc["lambda"] = list(fam.lam)
        f = [add(fam.g[x], fam.g0[fam.lam[x]]) for x in range(ctx.q)]
    elif kind == "hybrid":
        doc.update(h=_text(fam.h), k=_text(fam.k), S=list(fam.S))
        doc["lambda"] = list(fam.lam)
        f = [mul(x, ev(fam.h, fam.lam[x])) for x in range(ctx.q)]
    elif kind == "translator":
        doc.update(gamma=fam.gamma, b=fam.b, G=_text(fam.G))
        doc["lambda"] = list(fam.lam)
        f = [add(x, mul(fam.gamma, ev(fam.G, fam.lam[x])))
             for x in range(ctx.q)]
    else:
        doc.update(q=fam.q, g=_text(fam.g), i=fam.i, c=fam.c,
                   delta=fam.delta)
        f = []
        for x in range(ctx.q):
            y = add(add(reference_pow(ctx, x, fam.q ** fam.i),
                        reference_neg(ctx, x)), fam.delta)
            f.append(add(ev(fam.g, y), mul(fam.c, x)))
    return doc, f


_GENERATORS = {"mul": mul_instances, "add": add_instances,
               "hybrid": hybrid_instances, "translator": translator_instances,
               "niu": niu_instances}


class TestInvertAgainstReference:
    """Seeded instances of all five families, written as descriptors: ppinv
    invert exits 0 exactly when the reference forward table is a
    permutation, and then prints its brute-force inverse."""

    @pytest.mark.parametrize("kind", sorted(_GENERATORS))
    def test_table_is_the_reference_inverse(self, kind, tmp_path):
        rng = random.Random(f"invert-{kind}")
        exits = set()
        for q in ACCEPTANCE_FIELDS:
            for fam in _GENERATORS[kind](field_of(q), rng, 2):
                doc, f = _descriptor_and_forward(kind, fam)
                path = tmp_path / "fam.json"
                path.write_text(json.dumps(doc))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run(["invert", "--file", str(path)])
                report = json.loads(out.getvalue())
                if sorted(f) != list(range(q)):
                    assert code == 1, (doc, report)
                else:
                    assert code == 0, (doc, report)
                    inverse = [0] * q
                    for x, y in enumerate(f):
                        inverse[y] = x
                    assert report["table"] == inverse, doc
                exits.add(code)
        assert 0 in exits


# pieces inserted into drawn expression texts: grammar tokens, malformed
# and out-of-range ones, and arbitrary short text
_PIECES = st.one_of(
    st.sampled_from(["x", "+", "-", "*", "^", "(", ")", "{", "}", "T", "Tr",
                     "Tr{", " ", "0", "7", "-1", "99", "1" * 30, "Tr{0}(",
                     "Tr{5}(", "y", "."]),
    st.text(max_size=3))


class TestGrammarBoundaryProperty:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    def test_any_expression_is_exit_0_1_or_2_without_traceback(self, data):
        p, n = data.draw(st.sampled_from([(2, 1), (2, 2), (5, 1), (2, 3),
                                          (3, 2), (3, 3)]))
        chars = list(data.draw(expressions(field_of(p ** n)))[0])
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(chars)))
            if i < len(chars) and data.draw(st.booleans()):
                del chars[i]
            else:
                chars[i:i] = data.draw(_PIECES)
        text = "".join(chars)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["check-pp", "--p", str(p), "--n", str(n),
                            f"--expr={text}"])
        assert code in (0, 1, 2), (code, text, err.getvalue())
        assert "Traceback" not in err.getvalue(), text
        if code == 2:
            assert out.getvalue() == "", text
        else:
            json.loads(out.getvalue())

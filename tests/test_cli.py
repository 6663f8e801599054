"""End-to-end tests for the command line interface."""

import argparse
import csv
import hashlib
import io
import json
import re
from importlib import resources

import jsonschema
import pytest

from flockspectra import compute_spectrum, make_params
from flockspectra.cli import PARAMS, _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("flockspectra")
            .joinpath("schemas/cli_output.schema.json").read_text())
    return json.loads(text)


def validate(doc, schema):
    jsonschema.validate(doc, schema,
                        format_checker=jsonschema.FormatChecker())


T3_ARGS = ("--a", "1", "--c", "1", "--d", "2.95", "--e", "-2.25")


class TestSpectrum:
    def test_csv_row_count_and_header(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", *T3_ARGS, "--n", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["re", "im", "label"]
        assert len(rows) == 102  # header + n+1 full eigenvalues

    def test_csv_round_trips_to_seventeen_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", *T3_ARGS, "--n", "40", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        key = lambda z: (z.real, z.imag)
        got = sorted((complex(float(r), float(i)) for r, i, _ in rows),
                     key=key)
        p = make_params(1.0, 1.0, 2.0, 2.95, -2.25, 40)
        expected = sorted(compute_spectrum(p, "full").eigenvalues(), key=key)
        for g, x in zip(got, expected):
            assert g == x  # .17g preserves float64 exactly

    def test_json_matches_schema(self, capsys, schema):
        doc = run_json(capsys, "spectrum", *T3_ARGS, "--n", "30")
        validate(doc, schema)
        assert doc["command"] == "spectrum"
        res = doc["result"]
        count = ((1 if res["leader"] is not None else 0)
                 + len(res["bulk"]) + len(res["special"]))
        assert count == 31

    def test_kinds(self, capsys):
        full = run_json(capsys, "spectrum", *T3_ARGS, "--n", "20",
                        "--kind", "full")
        red = run_json(capsys, "spectrum", *T3_ARGS, "--n", "20",
                       "--kind", "reduced")
        assert full["result"]["leader"] is not None
        assert red["result"]["leader"] is None
        assert len(red["result"]["bulk"]) + len(red["result"]["special"]) \
            == 20


class TestClassify:
    def test_t3_case_2b(self, capsys, schema):
        doc = run_json(capsys, "classify", *T3_ARGS, "--n", "100")
        validate(doc, schema)
        regime = doc["result"]
        assert regime["theorem"] == "T3"
        assert regime["case"] == "2b"

    def test_decentralized_flag(self, capsys):
        doc = run_json(capsys, "classify", "--a", "1", "--c", "2",
                       "--d", "3", "--e", "-1", "--n", "20")
        assert doc["result"]["decentralized_cell"] is not None

    def test_decentralized_json_matches_schema(self, capsys, schema):
        doc = run_json(capsys, "classify", "--a", "1", "--c", "2",
                       "--d", "1.5", "--e", "0.5", "--n", "100")
        validate(doc, schema)
        assert doc["result"]["decentralized_cell"] == ["|e|<=a", "c>a"]


class TestStability:
    def test_decimal_decentralized_parameters(self, capsys, schema):
        # e + d = 0.30000000000000004 != 0.3 = c in binary
        doc = run_json(capsys, "stability", "--a", "1", "--c", "0.3",
                       "--d", "0.1", "--e", "0.2")
        validate(doc, schema)
        assert doc["result"]["stable"] == "stable"

    def test_first_order_stable(self, capsys, schema):
        doc = run_json(capsys, "stability", "--a", "1", "--c", "1",
                       "--d", "0.5", "--e", "0.5", "--n", "20")
        validate(doc, schema)
        assert doc["result"]["stable"] == "stable"
        assert doc["result"]["order"] == 1

    def test_second_order(self, capsys, schema):
        doc = run_json(capsys, "stability", "--a", "1", "--c", "1",
                       "--d", "0.5", "--e", "0.5", "--n", "20",
                       "--alpha", "1", "--beta", "1")
        validate(doc, schema)
        assert doc["result"]["order"] == 2
        assert doc["result"]["zero_multiplicity"] == 2

    def test_second_order_needs_both_gains(self, capsys):
        code, _, err = run_cli(capsys, "stability", "--a", "1", "--c", "1",
                               "--d", "0.5", "--e", "0.5", "--alpha", "1")
        assert code == 1
        assert "alpha" in json.loads(err)["message"]

    @pytest.mark.parametrize("gains", [("nan", "1"), ("1", "inf")],
                             ids=["alpha-nan", "beta-inf"])
    @pytest.mark.parametrize("subcommand", ["stability", "simulate"])
    def test_non_finite_gain_exit_one(self, capsys, subcommand, gains):
        code, _, err = run_cli(capsys, subcommand, "--a", "1", "--c", "1",
                               "--d", "0.5", "--e", "0.5",
                               "--alpha", gains[0], "--beta", gains[1])
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"


class TestSimulate:
    def test_csv_header_and_determinism(self, capsys):
        argv = ("simulate", "--a", "1", "--c", "1", "--d", "0.5",
                "--e", "0.5", "--n", "8", "--t-end", "5", "--format", "csv")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2  # seeded noise => byte-identical
        header = out1.splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[-1] == "coherence_error"
        assert "x_0" in header and "x_8" in header

    def test_json_matches_schema(self, capsys, schema):
        doc = run_json(capsys, "simulate", "--a", "1", "--c", "1",
                       "--d", "0.5", "--e", "0.5", "--n", "6",
                       "--t-end", "2")
        validate(doc, schema)
        assert doc["result"]["velocities"] is None
        assert len(doc["result"]["times"]) == \
            len(doc["result"]["coherence_errors"])

    def test_second_order_velocities(self, capsys, schema):
        doc = run_json(capsys, "simulate", "--a", "1", "--c", "1",
                       "--d", "0.5", "--e", "0.5", "--n", "6",
                       "--t-end", "2", "--alpha", "1", "--beta", "1")
        validate(doc, schema)
        assert doc["result"]["velocities"] is not None

    def test_state_csv(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        lines = ["h,x0"] + [f"{-k},{-k + 0.01}" for k in range(7)]
        path.write_text("\n".join(lines) + "\n")
        doc = run_json(capsys, "simulate", "--a", "1", "--c", "1",
                       "--d", "0.5", "--e", "0.5", "--n", "6",
                       "--t-end", "1", "--state-csv", str(path))
        assert abs(doc["result"]["positions"][0][3] + 2.99) < 1e-12

    @pytest.mark.parametrize("lines", [
        ["x,y"] + [f"{-k},{-k}" for k in range(7)],
        ["h,x0"] + [f"{-k},{'abc' if k == 3 else -k}" for k in range(7)]],
        ids=["missing-columns", "non-numeric-cell"])
    def test_bad_state_csv_exit_one(self, capsys, tmp_path, lines):
        path = tmp_path / "state.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "simulate", "--a", "1", "--c", "1",
                               "--d", "0.5", "--e", "0.5", "--n", "6",
                               "--t-end", "1", "--state-csv", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"


    def test_trajectory_leaving_the_float_range_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--a", "1", "--c", "1",
                                 "--d", "4", "--e", "-3", "--n", "20",
                                 "--t-end", "5000")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "DomainError"
        assert "float range" in doc["message"]

    def test_step_count_beyond_the_float_range_exit_one(self, capsys):
        # t_end / dt overflows to inf: a step count no integer holds
        code, out, err = run_cli(capsys, "simulate", "--a", "1", "--c", "1",
                                 "--d", "0.5", "--e", "0.5", "--n", "20",
                                 "--t-end", "1e308")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "DomainError"
        assert "steps" in doc["message"]

    def test_step_count_beyond_memory_exit_one(self, capsys):
        # 8e18 steps are countable, but numpy refuses their saved states
        # before anything is allocated
        code, out, err = run_cli(capsys, "simulate", "--a", "1", "--c", "1",
                                 "--d", "0.5", "--e", "0.5", "--n", "20",
                                 "--t-end", "1e18")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "DomainError"
        assert "do not fit" in doc["message"]


class TestConvergence:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", *T3_ARGS, "--n-values", "10,20,40",
            "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "deviation"]
        assert [int(r[0]) for r in rows[1:]] == [10, 20, 40]

    def test_json_matches_schema(self, capsys, schema):
        doc = run_json(capsys, "convergence", *T3_ARGS,
                       "--n-values", "10,20,40")
        validate(doc, schema)
        assert doc["result"]["fitted_rate"] > 1.0


class TestVerify:
    def test_agreement(self, capsys, schema):
        doc = run_json(capsys, "verify", *T3_ARGS, "--n", "60")
        validate(doc, schema)
        assert doc["result"]["max_pairing_error"] < 1e-8
        assert doc["result"]["method_agreement"] < 1e-8


DICT_REPORTS = [
    ("classify", "--a", "1", "--c", "2", "--d", "1.5", "--e", "0.5",
     "--n", "10"),
    ("stability", "--a", "1", "--c", "1", "--d", "0.5", "--e", "0.5",
     "--n", "8"),
    ("stability", "--a", "1", "--c", "1", "--d", "0.5", "--e", "0.5",
     "--n", "8", "--alpha", "1", "--beta", "2"),
    ("verify", "--a", "1.3", "--c", "0.7", "--d", "0.9", "--e", "0.4",
     "--n", "6", "--kind", "reduced"),
]


@pytest.mark.parametrize("argv", DICT_REPORTS)
def test_dict_report_csv_is_key_value_rows(capsys, argv):
    # a "key,value" header, then one row per result entry with the value
    # as JSON, byte for byte as the dict reports have always been written
    result = run_json(capsys, *argv)["result"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0, err
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows([k, json.dumps(v)] for k, v in result.items())
    assert out == buf.getvalue()


def test_classify_csv_bytes(capsys):
    code, out, err = run_cli(capsys, *DICT_REPORTS[0], "--format", "csv")
    assert code == 0, err
    assert out == ('key,value\ntheorem,"""T1"""\ncase,"""1"""\n'
                   'decentralized_cell,"[""|e|<=a"", ""c>a""]"\n'
                   'predicted_specials,[3.0]\n')


# Literal outputs, recorded when spectra were still Python lists, pin the
# bytes of the labeled spectrum, both verdicts and both oracle routes of
# verify.  The 17-digit values come from numpy and LAPACK on x86-64;
# another CPU or BLAS may change their last bits.
CLI_BYTES = [
    (('spectrum', '--a', '1', '--c', '1', '--d', '2.95', '--e', '-2.25',
      '--n', '5', '--format', 'csv'),
     're,im,label\n'
     '2,0,leader\n'
     '0.85035328944645172,0,bulk:2\n'
     '-0.49841624563092124,0,bulk:3\n'
     '-1.585205115226036,0,bulk:4\n'
     '2.091634035705253,0.12601707575027246,special\n'
     '2.091634035705253,-0.12601707575027246,special\n'),
    # at c+e = 0 the twin's quadratic has the exact double root y0 =
    # sqrt(c/a) = 256, and y0^(-2n) underflows at n = 68: both seeds stop
    # at y0, and the trace recovers the second special root, so both
    # specials read exactly 0.  Its 69 labeled eigenvalues make a long
    # output, so (line count, sha256) pins its bytes.
    (('spectrum', '--a', '0.25', '--c', '16384', '--d', '32768', '--e',
      '-16384', '--n', '68', '--kind', 'laplacian', '--format', 'csv'),
     (70, '67a93f589754ee69e3b2c4a883464e77879b4456758cec80a3e3ec4d9c22bc24')),
    # its 66 angles lie within 1.2 ulps of 60-digit roots of H
    (('spectrum', '--a', '0.25', '--c', '16384', '--d', '32768', '--e',
      '-16384', '--n', '68', '--kind', 'laplacian'),
     (398, '54f27863b9416b8fdce81dbd4836172b5fc6880d588df458115f1a32ebaf9126')),
    (('stability', '--a', '1', '--c', '3', '--d', '5', '--e', '-2', '--n',
      '8'),
     '{\n'
     '  "command": "stability",\n'
     '  "inputs": {\n'
     '    "a": 1.0,\n'
     '    "c": 3.0,\n'
     '    "d": 5.0,\n'
     '    "e": -2.0,\n'
     '    "n": 8\n'
     '  },\n'
     '  "result": {\n'
     '    "stable": "unstable",\n'
     '    "rule": "first-order: a+e<0, c+e!=0 => unstable",\n'
     '    "witness": [\n'
     '      0.0006068953615177008,\n'
     '      0.0\n'
     '    ],\n'
     '    "zero_multiplicity": 1,\n'
     '    "spectral_abscissa": 0.0006068953615177008,\n'
     '    "predicted_marginal": -0.5,\n'
     '    "order": 1\n'
     '  }\n'
     '}\n'),
    (('stability', '--a', '1', '--c', '3', '--d', '5', '--e', '-2', '--n',
      '8', '--alpha', '1', '--beta', '2'),
     '{\n'
     '  "command": "stability",\n'
     '  "inputs": {\n'
     '    "a": 1.0,\n'
     '    "c": 3.0,\n'
     '    "d": 5.0,\n'
     '    "e": -2.0,\n'
     '    "n": 8,\n'
     '    "alpha": 1.0,\n'
     '    "beta": 2.0\n'
     '  },\n'
     '  "result": {\n'
     '    "stable": "unstable",\n'
     '    "rule": "second-order (alpha,beta>0): first-order: a+e<0, '
     'c+e!=0 => unstable",\n'
     '    "witness": [\n'
     '      0.02524961606150399,\n'
     '      0.0\n'
     '    ],\n'
     '    "zero_multiplicity": 2,\n'
     '    "spectral_abscissa": 0.02524961606150399,\n'
     '    "predicted_marginal": -0.5,\n'
     '    "order": 2\n'
     '  }\n'
     '}\n'),
    (('verify', '--a', '1', '--c', '1', '--d', '2.95', '--e', '-2.25',
      '--n', '12'),
     '{\n'
     '  "command": "verify",\n'
     '  "inputs": {\n'
     '    "a": 1.0,\n'
     '    "c": 1.0,\n'
     '    "d": 2.95,\n'
     '    "e": -2.25,\n'
     '    "n": 12\n'
     '  },\n'
     '  "result": {\n'
     '    "max_pairing_error": 2.471493356579895e-15,\n'
     '    "method_agreement": 2.448161348223004e-15,\n'
     '    "n": 12,\n'
     '    "regime": {\n'
     '      "theorem": "T3",\n'
     '      "case": "2b"\n'
     '    }\n'
     '  }\n'
     '}\n'),
    (('verify', '--a', '1', '--c', '3', '--d', '5', '--e', '-2', '--n',
      '8', '--kind', 'laplacian'),
     '{\n'
     '  "command": "verify",\n'
     '  "inputs": {\n'
     '    "a": 1.0,\n'
     '    "c": 3.0,\n'
     '    "d": 5.0,\n'
     '    "e": -2.0,\n'
     '    "n": 8,\n'
     '    "kind": "laplacian"\n'
     '  },\n'
     '  "result": {\n'
     '    "max_pairing_error": 4.440892098500626e-15,\n'
     '    "method_agreement": 3.9968028886505635e-15,\n'
     '    "n": 8,\n'
     '    "regime": {\n'
     '      "theorem": "T3",\n'
     '      "case": "2c",\n'
     '      "decentralized_cell": [\n'
     '        "e<-a",\n'
     '        "c>a"\n'
     '      ],\n'
     '      "predicted_specials": [\n'
     '        4.0,\n'
     '        3.5\n'
     '      ]\n'
     '    }\n'
     '  }\n'
     '}\n'),
]


@pytest.mark.parametrize("argv, want", CLI_BYTES, ids=[
    "spectrum-csv", "spectrum-csv-laplacian", "spectrum-json-laplacian",
    "stability-first", "stability-second", "verify-full",
    "verify-laplacian"])
def test_output_bytes(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if isinstance(want, tuple):
        got = (out.count("\n"), hashlib.sha256(out.encode()).hexdigest())
        assert got == want, out
    else:
        assert out == want


class TestMonotonicity:
    def test_clean_case(self, capsys, schema):
        doc = run_json(capsys, "monotonicity", "--a", "1", "--c", "1",
                       "--d", "1", "--e", "1", "--n", "12")
        validate(doc, schema)
        assert doc["result"]["total_violations"] == 0

    def test_anomalous_case(self, capsys, schema):
        # large slope ratio B => sampled slope-sign violations appear
        doc = run_json(capsys, "monotonicity", "--a", "1", "--c", "1",
                       "--d", "-1.9", "--e", "-1.05", "--n", "12")
        validate(doc, schema)
        assert abs(doc["result"]["B"] - 41.0) < 1e-9
        assert doc["result"]["total_violations"] > 0


class TestConfigAndErrors:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"a": 1.0, "c": 1.0, "d": 2.95, "e": -2.25, "n": 30}))
        doc = run_json(capsys, "classify", "--config", str(cfg))
        assert doc["result"]["theorem"] == "T3"
        assert doc["inputs"]["n"] == 30

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"a": 1.0, "c": 1.0, "d": 2.95, "e": -2.25, "n": 30}))
        doc = run_json(capsys, "classify", "--config", str(cfg),
                       "--e", "0.0")
        assert doc["result"]["theorem"] == "T1"

    def test_unknown_config_key(self, capsys, tmp_path):
        # no subcommand reads "order" or "t3": the stability order follows
        # from --alpha/--beta
        cfg = tmp_path / "cfg.json"
        for command, key, value in [("classify", "zz", 2),
                                    ("stability", "order", 2),
                                    ("stability", "t3", 1.0)]:
            cfg.write_text(json.dumps({"a": 1.0, "c": 1.0, "d": 0.5,
                                       "e": 0.5, key: value}))
            code, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert code == 1
            assert key in json.loads(err)["message"]

    def test_missing_params_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--a", "1")
        assert code == 1
        assert json.loads(err)["error"] == "FlockSpectraError"

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--a", "-1", "--c", "1",
                               "--d", "1", "--e", "1")
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ("--a", "nan", "--c", "1", "--d", "1", "--e", "1"),
        ("--a", "1", "--c", "1", "--d", "inf", "--e", "1")],
        ids=["nan-a", "inf-d"])
    def test_non_finite_flag_exit_one(self, capsys, flags):
        code, _, err = run_cli(capsys, "classify", *flags)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("text", [
        '{"a": "abc", "c": 1, "d": 1, "e": 1}',
        '{"a": 1, "c": 1, "d": 1, "e": 1, "n": 1e400}'],
        ids=["non-numeric-a", "overflowing-n"])
    def test_bad_config_value_exit_one(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("cfg", [{"t_end": "abc"}, {"spacing": "x"}],
                             ids=["t_end-abc", "spacing-x"])
    def test_bad_simulate_config_value_exit_one(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"a": 1, "c": 1, "d": 0.5, "e": 0.5, "n": 5, **cfg}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--t-end", "nan"), ("simulate", "--t-end", "inf"),
        ("simulate", "--dt", "-1"), ("monotonicity", "--samples", "-3"),
        ("convergence", "--n-values", "5,x"),
        ("convergence", "--n-values", ",")],
        ids=["t-end-nan", "t-end-inf", "dt-negative", "samples-negative",
             "n-values-non-integer", "n-values-empty"])
    def test_bad_value_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--a", "1", "--c", "1",
                               "--d", "0.5", "--e", "0.5")
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_quadratic_root_beyond_the_float_range_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--a", "0.25", "--c",
                               "0.25", "--d", "1e308", "--e", "0.25",
                               "--n", "10")
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_extreme_coupling_ratio_classifies(self, capsys):
        # a/c underflows; tau = sqrt(a)/sqrt(c) does not
        doc = run_json(capsys, "classify", "--a", "1e-300", "--c", "1e300",
                       "--d", "1", "--e", "1")
        assert (doc["result"]["theorem"], doc["result"]["case"]) == \
            ("T2", "2")

    def test_bad_subcommand_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "classify", *T3_ARGS,
                               "--output", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["theorem"] == "T3"


# Each subcommand's option strings, as the hand-written parser had them
# before the parser was generated from PARAMS and COMMANDS.
OPTIONS = {
    "spectrum": "--a --c --b --d --e --n --format --output --config --kind",
    "classify": "--a --c --b --d --e --n --format --output --config",
    "stability": "--a --c --b --d --e --n --format --output --config "
                 "--alpha --beta",
    "simulate": "--a --c --b --d --e --n --format --output --config "
                "--alpha --beta --t-end --dt --spacing --state-csv",
    "convergence": "--a --c --b --d --e --format --output --config "
                   "--n-values",
    "verify": "--a --c --b --d --e --n --format --output --config --kind",
    "monotonicity": "--a --c --b --d --e --n --format --output --config "
                    "--samples",
}


def _param_keys(subcommand):
    return [o[2:].replace("-", "_") for o in OPTIONS[subcommand].split()
            if o != "--config"]


def _subparsers() -> dict:
    sub, = (a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestParameterTables:
    def test_subcommands(self):
        assert sorted(_subparsers()) == sorted(OPTIONS)

    @pytest.mark.parametrize("subcommand", sorted(OPTIONS))
    def test_option_strings(self, subcommand):
        got = _subparsers()[subcommand]._option_string_actions
        assert sorted(got) == sorted(
            ["-h", "--help"] + OPTIONS[subcommand].split())

    @pytest.mark.parametrize("subcommand", sorted(OPTIONS))
    def test_help_defaults_come_from_params(self, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        flag, shown = None, []  # each default, after its own flag
        for opt, default in re.findall(
                r"(?<![\w-])--([a-z-]+)|\(default ([^)]*)\)", text):
            if opt:
                flag = opt
            else:
                shown.append((flag, default))
        want = [(k.replace("_", "-"), str(PARAMS[k][1]))
                for k in _param_keys(subcommand) if PARAMS[k][1] is not None]
        assert sorted(shown) == sorted(want)


STATE_ROWS = ["h,x0,v0"] + [f"{-k},{-k + 0.01 * k},{0.1 * k}"
                            for k in range(7)]
PARITY_BASE = {"a": 1.0, "c": 1.0, "d": 0.5, "e": 0.5, "n": 6}
# key -> (subcommand, flag text, config value, further base entries); the
# config value is what the flag parses to, so "inputs" echo it alike
PARITY = {
    "a": ("classify", "1.5", 1.5, {}),
    "c": ("classify", "2", 2.0, {}),
    "b": ("classify", "3", 3.0, {}),
    "d": ("classify", "1.25", 1.25, {}),
    "e": ("classify", "-0.5", -0.5, {}),
    "n": ("classify", "9", 9, {}),
    "alpha": ("stability", "1", 1.0, {"beta": 2.0}),
    "beta": ("stability", "2", 2.0, {"alpha": 1.0}),
    "t_end": ("simulate", "1.5", 1.5, {}),
    "dt": ("simulate", "0.125", 0.125, {"t_end": 1.0}),
    "kind": ("spectrum", "reduced", "reduced", {}),
    "n_values": ("convergence", "10,20", "10,20", {"e": -2.25, "d": 2.95}),
    "samples": ("monotonicity", "20", 20, {}),
    "spacing": ("simulate", "2", 2.0, {"t_end": 1.0}),
    "state_csv": ("simulate", "STATE", "STATE", {"t_end": 1.0}),
    "format": ("classify", "csv", "csv", {}),
    "output": ("classify", "OUT", "OUT", {}),
}


def test_parity_covers_every_key():
    assert sorted(PARITY) == sorted(PARAMS)


@pytest.mark.parametrize("key", sorted(PARITY))
def test_flag_and_config_entry_agree(capsys, tmp_path, key):
    subcommand, text, value, extra = PARITY[key]
    state = tmp_path / "state.csv"
    state.write_text("\n".join(STATE_ROWS) + "\n")
    paths = {"STATE": str(state), "OUT": str(tmp_path / "out.txt")}
    text, value = paths.get(text, text), paths.get(value, value)
    base = {k: v for k, v in {**PARITY_BASE, **extra}.items() if k != key}
    outputs = []
    for cfg, flags in ((base, ["--" + key.replace("_", "-"), text]),
                       ({**base, key: value}, [])):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, subcommand, "--config", str(path),
                                 *flags)
        assert code == 0, err
        written = tmp_path / "out.txt"
        outputs.append((out, written.read_text() if written.exists()
                        else None))
        if written.exists():
            written.unlink()
    assert outputs[0] == outputs[1]
    assert any(outputs[0])


# Values a flag could not take: argparse rejects them as flags, and the
# same converters reject them in a config file.  Before the converters
# were shared, only kind was caught; the others ran with a silent fix-up.
@pytest.mark.parametrize("subcommand, entry", [
    ("classify", {"format": "xml"}),
    ("classify", {"n": 4.7}),
    ("monotonicity", {"samples": 2.5}),
    ("convergence", {"n_values": [10.5, 20]}),
    ("spectrum", {"kind": "bogus"})],
    ids=["format-xml", "n-4.7", "samples-2.5", "n_values-10.5",
         "kind-bogus"])
def test_config_value_no_flag_takes_exit_one(capsys, tmp_path, subcommand,
                                             entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PARITY_BASE, **entry}))
    code, out, err = run_cli(capsys, subcommand, "--config", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DomainError"
    assert next(iter(entry)) in doc["message"]


def test_integral_float_config_value_runs(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PARITY_BASE, "n": 9.0}))
    doc = run_json(capsys, "classify", "--config", str(path))
    assert doc["inputs"]["n"] == 9.0
    assert doc == {**run_json(capsys, "classify", "--config", str(path),
                              "--n", "9"), "inputs": doc["inputs"]}


@pytest.mark.parametrize("text", ["[1, 2]", "5"], ids=["list", "number"])
def test_config_that_is_not_an_object_exit_one(capsys, tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "classify", "--config", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "FlockSpectraError"

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from horomu import cli, criterion, decomp
from horomu.arith import sieve_mobius
from horomu.cli import (EXIT_CAPACITY, EXIT_IO, EXIT_OK, EXIT_PRECISION,
                        EXIT_VALIDATION, emit_series, main, parse_config,
                        parse_descriptor, parse_observable, parse_point,
                        parse_sequence)
from horomu.dynamics import OrbitEvaluator
from horomu.errors import DescriptorError
from horomu.exactreal import as_symbolic


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestConfigRoundTrip:
    def test_comments_and_blanks(self):
        text = "# comment\n\nn=10\n alpha = 0.5 \n"
        assert parse_config(text) == {"n": "10", "alpha": "0.5"}

    def test_bad_line(self):
        from horomu.errors import ValidationError
        with pytest.raises(ValidationError):
            parse_config("nonsense without equals\n")

    def test_config_file_feeds_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=400\nalpha=0.3\nj0=4\nj1=10\n")
        code, report = run(["decompose", "--config", str(cfg), "--n", "500"],
                           tmp_path)
        assert code == EXIT_OK
        assert report["result"]["n"] == 500  # CLI flag overrides config
        assert report["result"]["j0"] == 4  # config fills the rest

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_config_boolean_keys(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mean_zero={value}\n")
        code, report = run(["correlate", "--point", "point:lower:t=sqrt2",
                            "--n", "200", "--config", str(cfg)], tmp_path)
        assert code == EXIT_OK
        res = report["result"]
        assert res["mean_zero"] is (value == "true")
        plain = res["observable"] == "bump:y0=2,width=0.5"
        assert plain is (value == "false")

    @pytest.mark.parametrize("line", ["mean_zero=yes", "mean_zero=False",
                                      "mean_zero=", "n=abc", "format=xml"])
    def test_config_bad_values(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main(["correlate", "--point", "point:identity", "--n", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION, line


class TestSpecParsers:
    def test_point_specs(self):
        assert parse_point("point:identity").entries == (1, 0, 0, 1)
        xi = parse_point("point:lower:t=exp1")
        from horomu.dynamics import genericity
        assert genericity(xi).generic
        xi2 = parse_point("point:matrix:2;1;1;1")
        assert not genericity(xi2).generic

    def test_observable_specs(self):
        f = parse_observable("obs:bump:y0=2,width=0.5")
        assert f.label == "bump:y0=2,width=0.5"
        g = parse_observable("obs:const:c=0.25")
        assert float(g.eval(0.0, 5.0)) == 0.25
        with pytest.raises(DescriptorError, match="'foo'"):
            parse_observable("obs:bump:foo=1")
        with pytest.raises(DescriptorError, match="y0='abc'"):
            parse_observable("obs:bump:y0=abc")

    def test_sequence_specs(self, tmp_path):
        F = parse_sequence("const:1", 50)
        assert F.eval(17) == 1 + 0j
        F2 = parse_sequence("exp:theta=sqrt2", 50)
        assert abs(F2.eval(1)) == pytest.approx(1.0, abs=1e-12)
        F3 = parse_sequence("horocycle:point:identity:obs:bump:y0=2,width=0.5", 10)
        assert F3.eval(3) == F3.eval(7)  # fixed orbit

    def test_descriptor_specs(self):
        assert parse_descriptor("inf").kind == "infinity"
        assert parse_descriptor("3/4").kind == "rational"
        assert parse_descriptor("sqrt:2").surd == (1, 0, -2)
        assert parse_descriptor("golden").surd == (1, -1, -1)
        assert parse_descriptor("e").kind == "irrational"


# The README's spellings of an exact real: point entries, exp: angles and
# classify's boundary points all read them through SymbolicReal.parse.
README_ENTRIES = ["3/7", "-1/2", "0.3", "1e-3", "sqrt2", "sqrt:2", "golden", "inv_e",
                  "exp1", "1+2*sqrt2", "-1/2*pi"]
# classify's spelling of the same point before the grammars were one; None
# where the value is no bare constant, which classify refuses
CLASSIFY_AS = {"3/7": "3/7", "-1/2": "-1/2", "0.3": "3/10", "1e-3": "1/1000",
               "sqrt2": "sqrt:2", "sqrt:2": "sqrt:2", "golden": "surd:1,-1,-1",
               "inv_e": "inv_e", "exp1": "inv_e", "1+2*sqrt2": None, "-1/2*pi": None}


class TestOneGrammar:
    @pytest.mark.parametrize("entry", README_ENTRIES)
    def test_point_entry(self, entry):
        xi = parse_point(f"point:lower:t={entry}")
        assert xi.entries[2] == as_symbolic(entry)

    @pytest.mark.parametrize("entry", README_ENTRIES)
    def test_exp_angle(self, entry):
        F = parse_sequence(f"exp:theta={entry}", 3000)
        want = criterion.BoundedSequence.exponential(as_symbolic(entry), 3000)
        assert F.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("entry", README_ENTRIES)
    def test_classify(self, tmp_path, entry):
        code, report = run(["classify", f"--z={entry}"], tmp_path)
        if CLASSIFY_AS[entry] is None:
            assert code == EXIT_VALIDATION
            return
        code0, report0 = run(["classify", f"--z={CLASSIFY_AS[entry]}"], tmp_path,
                             "0.json")
        assert code == code0 == EXIT_OK
        assert report["result"] == report0["result"]

    # 1e-5000 is a numeral, but with more digits than Python prints
    @pytest.mark.parametrize("entry", ["sqrt4", "foo", "1/0", "inf", "1e-5000"])
    def test_refused(self, tmp_path, entry):
        code, _ = run(["orbit", "--point", f"point:lower:t={entry}", "--n", "5"], tmp_path)
        assert code == EXIT_VALIDATION
        with pytest.raises(DescriptorError):
            parse_sequence(f"exp:theta={entry}", 10)
        if entry != "inf":  # the point at infinity, for classify
            code, _ = run(["classify", f"--z={entry}"], tmp_path)
            assert code == EXIT_VALIDATION

    # Fraction would expand 10^10000000 for seconds before anything refused it
    @pytest.mark.parametrize("args", [
        ["classify", "--z=1e10000000"],
        ["orbit", "--point", "point:lower:t=1e10000000", "--n", "5"],
        ["criterion", "--nu", "mobius", "--seq", "exp:theta=1e10000000", "--n", "1000",
         "--alpha", "0.3", "--j0", "4", "--j1", "10", "--cutoff", "20"],
        ["decompose", "--n", "1000", "--alpha=1e10000000", "--j0", "4", "--j1", "10"]],
        ids=["classify", "point", "exp", "alpha"])
    def test_huge_exponent_exits_2_at_once(self, tmp_path, args):
        start = time.perf_counter()
        code, _ = run(args, tmp_path)
        assert code == EXIT_VALIDATION
        assert time.perf_counter() - start < 2.0

    def test_descriptor_error_lists_the_grammar(self):
        with pytest.raises(DescriptorError, match="inv_e, inv_pi"):
            parse_descriptor("foo")


def assert_close_reports(a, b, path="result"):
    """Equal structure; floats (repr strings) within 1e-12 relative, a
    [re, im] pair relative to its modulus; everything else exactly equal."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_close_reports(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and len(a) == 2 and all(map(_is_float, a + b)):
        za, zb = complex(*map(float, a)), complex(*map(float, b))
        assert abs(za - zb) <= 1e-12 * max(abs(za), abs(zb)), (path, a, b)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            assert_close_reports(u, v, f"{path}[{i}]")
    elif isinstance(a, str) and _is_float(a) and _is_float(b):
        x, y = float(a), float(b)
        assert x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (path, a, b)
    else:
        assert a == b, path


def _is_float(text) -> bool:
    if not isinstance(text, str):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestSubcommands:
    def test_classify_surd(self, tmp_path):
        code, report = run(["classify", "--z", "sqrt:2"], tmp_path)
        assert code == EXIT_OK
        assert report["schema"] == "horomu/run-report/v1"
        assert report["result"]["group"] == "{1}"

    def test_classify_rational(self, tmp_path):
        code, report = run(["classify", "--z", "3/4"], tmp_path)
        assert code == EXIT_OK
        assert report["result"]["group"] == "Q*"

    def test_sieve(self, tmp_path):
        series = tmp_path / "mu.csv"
        code, report = run(["sieve", "--kind", "mobius", "--n", "100",
                            "--series", str(series)], tmp_path)
        assert code == EXIT_OK
        assert report["result"]["partial_sum"] == 1
        lines = series.read_text().splitlines()
        assert lines[0] == "n,value" and len(lines) == 101

    def test_decompose_deterministic(self, tmp_path):
        args = ["decompose", "--n", "20000", "--alpha", "0.3",
                "--j0", "5", "--j1", "12"]
        code1, rep1 = run(args, tmp_path, "a.json")
        code2, rep2 = run(args, tmp_path, "b.json")
        assert code1 == code2 == EXIT_OK
        rep1["timings_sec"] = rep2["timings_sec"] = None
        rep1["config"]["out"] = rep2["config"]["out"] = None
        assert rep1 == rep2
        counts = rep1["result"]["counts"]
        assert isinstance(counts["leftover"], int)
        assert isinstance(counts["not_in_s"], int)

    def test_criterion_smoke(self, tmp_path):
        code, report = run(["criterion", "--nu", "mobius", "--seq",
                            "exp:theta=sqrt2", "--n", "4000", "--alpha", "0.3",
                            "--j0", "5", "--j1", "10", "--cutoff", "20"],
                           tmp_path)
        assert code == EXIT_OK
        res = report["result"]
        assert res["exact_chain_holds"] is True
        assert res["verdict"] in ("holds", "fails", "inconclusive")
        assert float(res["tau_effective"]) >= 1 / math.log(20) - 1e-12
        assert isinstance(res["leftover_count"], int)

    def test_criterion_builds_params_once(self, tmp_path, monkeypatch):
        built = []
        post_init = decomp.DecompositionParams.__post_init__
        monkeypatch.setattr(decomp.DecompositionParams, "__post_init__",
                            lambda self: built.append(post_init(self)))
        code, report = run(["criterion", "--nu", "mobius", "--seq",
                            "exp:theta=sqrt2", "--n", "4000", "--alpha", "3/10",
                            "--j0", "5", "--j1", "10", "--cutoff", "20"], tmp_path)
        assert code == EXIT_OK and len(built) == 1
        F = parse_sequence("exp:theta=sqrt2", 5200)
        rep = criterion.criterion_ledger(sieve_mobius(4000), F, 4000, Fraction(3, 10),
                                         5, 10, cutoff=20.0)
        assert report["result"] == json.loads(json.dumps(rep.as_dict()))

    def test_criterion_blas_thread_count(self, tmp_path):
        # float64 sums agree to rounding across BLAS thread counts; integers,
        # verdicts and hold flags agree exactly
        src = str(Path(__file__).resolve().parents[1] / "src")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}.json"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "horomu.cli", "criterion", "--nu", "mobius",
                 "--seq", "exp:theta=sqrt2", "--n", "300000", "--alpha", "3/10",
                 "--j0", "9", "--j1", "30", "--cutoff", "200", "--out", str(out)],
                env=env, check=True)
            reports.append(json.loads(out.read_text())["result"])
        assert_close_reports(*reports)

    def test_criterion_exclude(self, tmp_path):
        code, report = run(["criterion", "--nu", "mobius", "--seq",
                            "exp:theta=sqrt2", "--n", "4000", "--alpha", "0.3",
                            "--j0", "5", "--j1", "10", "--cutoff", "20",
                            "--exclude", "2:3,5:7"], tmp_path)
        assert code == EXIT_OK
        assert report["result"]["excluded"] == [[2, 3], [5, 7]]

    def test_sqrt_symbol_spellings_agree(self, tmp_path):
        # sqrt:2 and sqrt2 name one constant, so the determinant is exactly 1
        code, report = run(["orbit", "--point", "point:matrix:sqrt2;0;0;1/2*sqrt:2",
                            "--n", "5"], tmp_path)
        assert code == EXIT_OK
        assert report["result"]["point"] == "ModularPoint([sqrt2, 0; 0, 1/2*sqrt2])"

    def test_orbit_mean_f_is_fsum(self, tmp_path):
        code, report = run(["orbit", "--point", "point:lower:t=inv_e", "--obs",
                            "obs:windy:y0=2,width=0.5", "--n", "3000"], tmp_path)
        assert code == EXIT_OK
        ev = OrbitEvaluator(parse_point("point:lower:t=inv_e"), 3000)
        xs, ys, ts = ev.run(range(1, 3001), need_theta=True)
        fs = parse_observable("obs:windy:y0=2,width=0.5").eval(xs, ys, ts)
        assert report["result"]["mean_f"] == repr(math.fsum(fs) / 3000)

    @pytest.mark.parametrize("n", [25, 4096, 2 * 4096 + 1])
    def test_orbit_streams_the_full_array_report(self, tmp_path, n):
        # mean_f, final and the CSV bytes as the whole orbit in arrays gives them
        series = tmp_path / "orbit.csv"
        code, report = run(["orbit", "--point", "point:lower:t=inv_e", "--obs",
                            "obs:windy:y0=2,width=0.5", "--n", str(n),
                            "--series", str(series)], tmp_path)
        assert code == EXIT_OK
        ev = OrbitEvaluator(parse_point("point:lower:t=inv_e"), n)
        xs, ys, ts = ev.run(range(1, n + 1), need_theta=True)
        fs = parse_observable("obs:windy:y0=2,width=0.5").eval(xs, ys, ts)
        assert report["result"]["mean_f"] == repr(math.fsum(fs) / n)
        assert report["result"]["final"] == {
            "x": repr(float(xs[-1])), "y": repr(float(ys[-1])), "theta": repr(float(ts[-1]))}
        names = ["n", "x", "y", "theta", "f"]
        want = tmp_path / "want.csv"
        emit_series(zip(range(1, n + 1), xs.tolist(), ys.tolist(), ts.tolist(),
                        fs.tolist()), want, names)
        assert series.read_bytes() == want.read_bytes()

    def test_orbit_series_schema(self, tmp_path):
        series = tmp_path / "orbit.csv"
        code, report = run(["orbit", "--point", "point:lower:t=exp1",
                            "--n", "25", "--series", str(series)], tmp_path)
        assert code == EXIT_OK
        lines = series.read_text().splitlines()
        assert lines[0] == "n,x,y,theta,f"
        assert len(lines) == 26
        assert "," in lines[1] and "." in lines[1]  # period decimal separator

    def test_empty_series_header_only(self, tmp_path):
        series = tmp_path / "empty.csv"
        emit_series([], series, ["n", "x", "y", "theta", "f"])
        assert series.read_text().splitlines() == ["n,x,y,theta,f"]

    def test_csv_report_format(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        for path in (str(out), "-"):  # a file, then stdout
            code = main(["classify", "--z", "sqrt:2", "--format", "csv",
                         "--out", path])
            assert code == EXIT_OK
            text = out.read_text() if path != "-" else capsys.readouterr().out
            lines = text.splitlines()
            assert lines[0] == "key,value"
            flat = dict(line.split(",", 1) for line in lines[1:])
            assert flat["result.group"] == "{1}"

    def test_correlate(self, tmp_path):
        code, report = run(["correlate", "--point", "point:identity",
                            "--obs", "obs:const:c=1", "--n", "50"], tmp_path)
        assert code == EXIT_OK
        assert float(report["result"]["value"]) == 1.0
        assert float(report["result"]["gap"]) == 0.0

    def test_disjointness_ladder(self, tmp_path):
        series = tmp_path / "ladder.csv"
        code, report = run(["disjointness", "--point", "point:identity",
                            "--obs", "obs:const:c=1", "--n", "1000",
                            "--ladder", "100,1000", "--series", str(series)],
                           tmp_path)
        assert code == EXIT_OK
        rows = report["result"]["rows"]
        assert [r["n"] for r in rows] == [100, 1000]
        assert float(rows[0]["average"]) == pytest.approx(0.01, rel=1e-12)
        lines = series.read_text().splitlines()
        assert lines[0] == "n,average,centered_average,nu_mean"
        assert len(lines) == 3


class TestExitCodes:
    def test_validation(self, tmp_path):
        code = main(["decompose", "--n", "10", "--alpha", "1.0",
                     "--j0", "1", "--j1", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION

    def test_capacity(self, tmp_path):
        code = main(["sieve", "--kind", "mobius", "--n", str(10 ** 12),
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CAPACITY

    def test_criterion_pair_budget(self, tmp_path, capsys):
        # 4203 primes below the cutoff are over the budget of 4096; the pair
        # plan refuses them before the decomposition is built
        code = main(["criterion", "--nu", "mobius", "--seq", "exp:theta=sqrt2",
                     "--n", "300000", "--alpha", "3/10", "--j0", "9", "--j1", "30",
                     "--cutoff", "40000", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "4203 primes" in err and "Traceback" not in err, err

    def test_criterion_block_budget(self, tmp_path, capsys, monkeypatch):
        # the block [2^17, 2^18) holds 10749 primes, over the budget of 4096:
        # refused before the product sets are built
        def costly(*args):
            raise AssertionError("product sets built before the blocks were checked")
        monkeypatch.setattr(criterion, "product_sets", costly)
        code = main(["criterion", "--nu", "mobius", "--seq", "exp:theta=inv_e",
                     "--n", "1000000", "--alpha", "1", "--j0", "1", "--j1", "18",
                     "--cutoff", "100", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "error[capacity]: a block of 10749 primes" in err, err
        assert "Traceback" not in err, err
        # the patch is on the path a run takes: blocks within the budget
        # reach it
        with pytest.raises(AssertionError, match="product sets built"):
            main(["criterion", "--nu", "mobius", "--seq", "exp:theta=inv_e",
                  "--n", "2000", "--alpha", "1", "--j0", "2", "--j1", "10",
                  "--cutoff", "20", "--out", str(tmp_path / "y.json")])

    @pytest.mark.parametrize("plan", [["--cutoff", "inf"],
                                      ["--cutoff", "100", "--exclude", "4:6"],
                                      ["--cutoff", "100", "--m", "0"]])
    def test_criterion_pair_plan_before_inputs(self, tmp_path, capsys, monkeypatch, plan):
        # a pair plan the ledger would refuse is refused before nu and F
        def costly(*args):
            raise AssertionError("nu or F built before the pair plan was checked")
        monkeypatch.setattr(cli, "parse_nu", costly)
        monkeypatch.setattr(cli, "parse_sequence", costly)
        code = main(["criterion", "--nu", "mobius", "--seq", "exp:theta=inv_e",
                     "--n", "100000", "--alpha", "3/10", "--j0", "9", "--j1", "30",
                     *plan, "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error[" in err and "Traceback" not in err, err

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def exhausted(args, timings):
            raise MemoryError("Unable to allocate 1.72 GiB")
        monkeypatch.setitem(cli._HANDLERS, "classify", exhausted)
        code = main(["classify", "--z", "e", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "error[capacity]: out of memory: Unable to allocate" in err, err
        assert "Traceback" not in err, err

    @pytest.mark.parametrize("window", [("100", "1/100000", "32767", "32769"),
                                        ("30000000", "1/2000", "32760", "32769")])
    def test_block_index_past_int16(self, tmp_path, capsys, window):
        # block indices are int16: a j1 past 32767 is refused before any
        # power of 1 + alpha is formed in the bounds loop
        n, alpha, j0, j1 = window
        code = main(["decompose", "--n", n, "--alpha", alpha, "--j0", j0, "--j1", j1,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "error[capacity]: j1 = 32769 exceeds the int16 block indices" in err, err
        assert "Traceback" not in err, err

    @pytest.mark.parametrize("alpha", ["0.1", "0.01"])
    def test_default_schedule_past_n(self, tmp_path, capsys, alpha):
        # the default j1 (15129 and 95394289) puts D1 far above N; that is
        # decided from logarithms, before the exact power is formed
        started = time.perf_counter()
        code = main(["decompose", "--n", "100000", "--alpha", alpha,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        assert time.perf_counter() - started < 5
        err = capsys.readouterr().err
        assert "error[validation]: need D1 < N" in err and "Traceback" not in err, err

    def test_precision(self, tmp_path):
        code = main(["orbit", "--point", "point:lower:t=exp1", "--n", "100000",
                     "--precision-bits", "8",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PRECISION

    @pytest.mark.parametrize("bits, expect", [(["--precision-bits", "32"], EXIT_PRECISION),
                                              ([], EXIT_OK),
                                              (["--precision-bits", "1"], EXIT_PRECISION)])
    def test_precision_guard(self, tmp_path, bits, expect):
        # 32 bits collapse no point, but they put mean_f 3e-5 off (0.431317)
        code, report = run(["orbit", "--point", "point:lower:t=inv_e",
                            "--n", "20000", *bits], tmp_path)
        assert code == expect
        if expect == EXIT_OK:
            assert float(report["result"]["mean_f"]) == pytest.approx(
                0.4313466280135164, abs=1e-14)

    def test_io(self, tmp_path):
        code = main(["classify", "--z", "sqrt:2",
                     "--out", "/nonexistent-dir/report.json"])
        assert code == EXIT_IO

    def test_descriptor_validation(self, tmp_path, capsys):
        code = main(["classify", "--z", "sqrt:4",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        for obs in ("obs:bump:foo=1", "obs:bump:y0=abc", "obs:windy:y0=-1",
                    "obs:const:c=nan", "obs:const:c=inf",
                    "obs:bump:y0=3:width=0.1"):  # a segment past the list
            code = main(["orbit", "--point", "point:identity", "--n", "3",
                         "--obs", obs, "--out", str(tmp_path / "x.json")])
            assert code == EXIT_VALIDATION, obs
        # finite, but its square, a correlation term, would not be
        code = main(["correlate", "--point", "point:lower:t=inv_e", "--n", "10",
                     "--obs", "obs:const:c=1e200", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        criterion = ["criterion", "--seq", "exp:theta=sqrt2", "--n", "400",
                     "--alpha", "0.3", "--j0", "5", "--j1", "10", "--cutoff", "20"]
        for args in (criterion + ["--exclude", "2"],
                     criterion + ["--exclude", "4:6"],  # not primes
                     criterion + ["--exclude", "3:3"],  # not distinct
                     criterion + ["--exclude", "2:23"],  # above the cutoff
                     ["criterion", "--seq", "exp:theta=1/0"] + criterion[3:],
                     ["classify", "--z", "surd:1,2"],
                     ["classify", "--z", "sqrt:x"],
                     ["disjointness", "--point", "point:identity", "--n", "10",
                      "--ladder", "10,abc"],
                     ["disjointness", "--point", "point:identity", "--n", "0"],
                     ["correlate", "--point", "point:lower:t=inv_e", "--n", "0",
                      "--mean-zero"],
                     ["orbit", "--point", "point:lower:t=1/0", "--n", "3"],
                     ["correlate", "--point", "point:identity:junk", "--n", "10"],
                     ["orbit", "--point", "point:lower:t=e", "--n", "0"],
                     ["orbit", "--point", "point:lower:t=e", "--n", "-5"],
                     ["orbit", "--point", "point:lower:t=e", "--n", "10",
                      "--precision-bits", "0"],
                     ["orbit", "--point", "point:lower:t=e", "--n", "10",
                      "--precision-bits", "-1"],
                     criterion[:-1] + ["inf"],
                     criterion[:-1] + ["nan"],
                     ["correlate", "--point", "point:lower:t=e", "--n", "200",
                      "--obs", "obs:windy:width=0"],
                     ["correlate", "--point", "point:lower:t=e", "--n", "200",
                      "--obs", "obs:bump:y0=nan"],
                     ["criterion", "--seq", "const:nan"] + criterion[3:]):
            capsys.readouterr()
            code = main(args + ["--out", str(tmp_path / "x.json")])
            assert code == EXIT_VALIDATION, args
            if args[0] in ("disjointness", "correlate") and "0" in args:
                err = capsys.readouterr().err
                assert f"{args[0]} needs --n >= 1, got 0" in err, err

    @pytest.mark.parametrize("body, expect", [
        (None, EXIT_IO),  # no such file
        ("n,value\nx,1\n", EXIT_VALIDATION),
        ("n,value\n1,abc\n", EXIT_VALIDATION),
        ("n,value\n1\n", EXIT_VALIDATION),  # row with no value
        ("n,value\n1,1\n-3,1\n", EXIT_VALIDATION),
        ("n,value\n1,1\n0,1\n", EXIT_VALIDATION),
        ("n,value\n1,1\n1,1\n", EXIT_VALIDATION),  # n repeated
        ("", EXIT_VALIDATION),  # no header
        ("n,value\n1,1\n1000000000000,0\n", EXIT_CAPACITY),
    ])
    def test_malformed_table(self, tmp_path, capsys, body, expect):
        table = tmp_path / "nu.csv"
        if body is not None:
            table.write_text(body)
        spec = f"table:{table}"
        # a pair plan the ledger accepts (primes 2 and 3, m = 1), since a
        # bad one is refused before the table is read
        window = ["--n", "3", "--alpha", "0.3", "--j0", "1", "--j1", "2",
                  "--cutoff", "3"]
        for args in (["disjointness", "--point", "point:identity", "--n", "3",
                      "--nu", spec],
                     ["criterion", "--nu", spec, "--seq", "const:1"] + window,
                     ["criterion", "--seq", spec] + window):
            assert main(args + ["--out", str(tmp_path / "x.json")]) == expect, args
            err = capsys.readouterr().err
            assert str(table) in err and "Traceback" not in err, err
            if expect == EXIT_VALIDATION and body:
                assert f"{table} line " in err or "header" in err, err

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_nonpositive_pair_length(self, tmp_path, capsys, m):
        code = main(["criterion", "--seq", "exp:theta=sqrt2", "--n", "1000",
                     "--alpha", "0.3", "--j0", "5", "--j1", "10", "--cutoff", "50",
                     "--m", m, "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        assert f"pair length M = {m} must be at least 1" in capsys.readouterr().err

    def test_flags_only_where_read(self, tmp_path):
        out = ["--out", str(tmp_path / "x.json")]
        criterion = ["criterion", "--seq", "exp:theta=sqrt2", "--n", "1000",
                     "--alpha", "0.3", "--j0", "5", "--j1", "10", "--cutoff", "50"]
        for args in (["classify", "--z", "e", "--threads", "2"],
                     criterion + ["--threads", "2"],
                     ["classify", "--z", "e", "--precision-bits", "64"],
                     ["classify", "--z", "e", "--series", "s.csv"],
                     ["decompose", "--n", "400", "--alpha", "0.3", "--j0", "4",
                      "--j1", "10", "--series", "s.csv"],
                     ["sieve", "--n", "100", "--precision-bits", "64"],
                     ["correlate", "--point", "point:identity", "--n", "3",
                      "--series", "s.csv"],
                     ["orbit", "--point", "point:identity", "--n", "3",
                      "--threads", "2"]):
            assert main(args + out) == EXIT_VALIDATION, args
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        for args in (["classify", "--z", "e"], criterion):
            assert main(args + ["--config", str(cfg)] + out) == EXIT_VALIDATION, args

    def test_ok(self, tmp_path):
        code = main(["classify", "--z", "e", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_OK

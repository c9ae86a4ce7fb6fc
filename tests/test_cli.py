import io
import json
import math

import numpy as np
import pytest

from angelesco.cli import build_parser, main


def run_cli(argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_coeffs_base_csv():
    code, out = run_cli(
        ["coeffs", "--r", "2", "--alpha", "0", "--beta", "0", "--n", "2", "--family", "base"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,re,im"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    vals = [float(r[1]) for r in rows]
    assert vals == pytest.approx([1.0, -3.75, 3.0])
    assert all(float(r[2]) == 0.0 for r in rows)


def test_coeffs_diag_two_rays():
    code, out = run_cli(["coeffs", "--r", "2", "--n", "1", "--family", "diag"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ray,k,re,im"
    assert len(lines) == 3  # one coefficient per ray
    rays = {line.split(",")[0] for line in lines[1:]}
    assert rays == {"1", "2"}


def test_invalid_alpha_exits_2():
    code, _ = run_cli(["coeffs", "--r", "2", "--alpha", "-1", "--beta", "0", "--n", "1"])
    assert code == 2


def test_family_k_validation():
    code, _ = run_cli(["coeffs", "--r", "2", "--n", "1", "--family", "up"])
    assert code == 2
    code, _ = run_cli(["coeffs", "--r", "2", "--n", "1", "--family", "up", "--k", "3"])
    assert code == 2
    code, _ = run_cli(["coeffs", "--r", "2", "--n", "1", "--family", "base", "--k", "1"])
    assert code == 2


def test_empty_minus_index_is_zero_vector():
    code, out = run_cli(["coeffs", "--r", "1", "--alpha", "-0.5", "--beta", "-0.5",
                         "--n", "1", "--family", "down", "--k", "1"])
    assert code == 0
    assert out.strip().splitlines() == ["ray,k,re,im", "1,0,0,0"]


def test_coeffs_rows_end_at_last_nonzero_and_real_rows_print_plus_zero():
    # r = 2: the phases are +-1, so both rows are real, and row k = 2 of the
    # down vector at n = 3 ends at x^1, its x^2 coefficient cancelled; the
    # table holds -0.0 imaginary parts, which a real row prints as +0
    code, out = run_cli(["coeffs", "--r", "2", "--alpha", "2", "--beta", "0.7", "--n", "3",
                         "--family", "down", "--k", "2"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("1", "1"), ("1", "2"), ("2", "0"), ("2", "1")]
    assert [r[3] for r in rows] == ["0"] * 5


def test_degenerate_parameters_exit_2(capsys):
    code, out = run_cli(["coeffs", "--r", "1", "--alpha", "-0.5", "--beta", "-0.5",
                         "--n", "0", "--family", "base"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_degree_cap_exits_3():
    code, _ = run_cli(["coeffs", "--r", "2", "--n", "99", "--family", "base"])
    assert code == 3


def test_verify_orthogonality_passes():
    code, out = run_cli(["verify", "--suite", "orthogonality", "--r", "3", "--n-max", "8"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("overall=pass")


def test_verify_ode():
    code, _ = run_cli(["verify", "--suite", "ode", "--r", "2", "--n-max", "15", "--tol", "1e-8"])
    assert code == 0


def test_verify_unreachable_tol_fails():
    code, out = run_cli(
        ["verify", "--suite", "orthogonality", "--r", "2", "--n-max", "3", "--tol", "1e-30"]
    )
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol, capsys):
    # nan and -1 would fail every level and inf would pass an uncertified one
    code, out = run_cli(["verify", "--suite", "zeros", "--r", "3", "--alpha", "1e4",
                         "--beta", "1e4", "--n-max", "3", "--tol", tol])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_verify_accepts_zero_tolerance():
    # the level-1 lowering identity holds exactly, and a residual <= tol passes
    code, out = run_cli(["verify", "--suite", "lowering", "--r", "2", "--n-max", "1", "--tol", "0"])
    assert code == 0
    assert out == "suite=lowering n=1 worst_residual=0 pass\nsuite=lowering overall=pass\n"


def test_verify_raising_domain_guard():
    code, _ = run_cli(
        ["verify", "--suite", "raising", "--r", "2", "--alpha", "0", "--beta", "0", "--n-max", "3"]
    )
    assert code == 2


def test_zeros_csv_sorted():
    code, out = run_cli(["zeros", "--r", "2", "--n", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,x"
    xs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(xs) == 5
    assert xs == sorted(xs)
    assert all(0.0 < x < 1.0 for x in xs)


def test_recurrence_table_values():
    code, out = run_cli(["recurrence", "--r", "2", "--n-max", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a,b,a_limit,b_limit"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(1.0 / 12.0)
    assert float(row[2]) == pytest.approx(0.5)


def test_recurrence_r1_usage_error():
    code, _ = run_cli(["recurrence", "--r", "1", "--n-max", "3"])
    assert code == 2


def test_density_interior_midpoint():
    code, out = run_cli(["density", "--r", "1", "--samples", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u,F"
    mid = lines[2].split(",")
    assert float(mid[0]) == pytest.approx(0.5)
    assert float(mid[1]) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_json_record_schema_and_roundtrip():
    code, out = run_cli(
        ["coeffs", "--r", "2", "--n", "2", "--family", "base", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["command"]["n"] == 2
    rows = rec["payload"]["rows"]
    from angelesco import Params, base_poly

    want = base_poly(2, Params(2, 0.0, 0.0))
    assert [row[1] for row in rows] == list(want)  # parses back without loss
    assert rec["payload"]["columns"] == ["k", "re", "im"]


def test_byte_identical_runs():
    args = ["density", "--r", "3", "--samples", "25"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2
    args = ["coeffs", "--r", "4", "--alpha", "0.7", "--beta", "-0.5", "--n", "5",
            "--family", "up", "--k", "2"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_float_round_trip_17g():
    _, out = run_cli(["coeffs", "--r", "3", "--alpha", "0.7", "--beta", "-0.5",
                      "--n", "6", "--family", "base"])
    from angelesco import Params, base_poly

    want = base_poly(6, Params(3, 0.7, -0.5))
    got = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert np.array_equal(np.array(got), want)


def test_figure2_csv_and_svg(tmp_path):
    svg = tmp_path / "fig.svg"
    code, out = run_cli(["figure2", "--samples", "151", "--svg", str(svg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,x,u,F"
    assert len(lines) == 1 + 5 * 151
    rs = {line.split(",")[0] for line in lines[1:]}
    assert rs == {"1", "2", "3", "4", "5"}
    body = svg.read_text()
    assert body.startswith("<svg")
    assert body.count("<polyline") == 5
    assert body.rstrip().endswith("</svg>")


def test_figure2_mass_self_check():
    # trapezoid over the emitted grid plus the exact tail masses from the F
    # column; the endpoint singularities cap what a figure-sized grid can do
    code, out = run_cli(["figure2", "--samples", "2001", "--svg", ""])
    assert code == 0
    lines = out.strip().splitlines()[1:]
    data = {}
    for line in lines:
        r, x, u, F = line.split(",")
        data.setdefault(int(r), []).append((float(x), float(u), float(F)))
    for r, rows in data.items():
        x = np.array([t[0] for t in rows])
        u = np.array([t[1] for t in rows])
        F = np.array([t[2] for t in rows])
        total = np.trapezoid(u, x) + F[0] + (1.0 - F[-1])
        assert abs(total - 1.0) <= 5e-4


def test_parser_structure():
    ap = build_parser()
    assert ap.prog == "angelesco"
    with pytest.raises(SystemExit):
        ap.parse_args(["nonsense"])


def run_fresh(argv):
    # the same call through a parser built for it alone
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return e.code, out.getvalue()
        code = args.func(args)
    return code, out.getvalue()


def test_shared_parser_is_built_once():
    from angelesco.cli import _shared_parser

    assert _shared_parser() is _shared_parser()
    assert build_parser() is not build_parser()


def test_main_reuses_parser_across_calls(capsys):
    sequence = [
        ["coeffs", "--r", "3", "--alpha", "0.7", "--beta", "-0.5", "--n", "4",
         "--family", "up", "--k", "2", "--format", "json"],
        ["verify", "--suite", "ode", "--r", "2", "--n-max", "4"],
        ["coeffs", "--r", "2", "--n", "1", "--family", "nonsense"],  # argparse usage error
        ["zeros", "--r", "2", "--n", "4"],
        ["verify", "--suite", "orthogonality", "--r", "3", "--n-max", "2"],
        ["coeffs", "--r", "3", "--alpha", "0.7", "--beta", "-0.5", "--n", "4",
         "--family", "up", "--k", "2", "--format", "json"],
    ]
    codes = []
    for argv in sequence:
        shared = run_cli(argv)
        assert shared == run_fresh(argv)
        codes.append(shared[0])
    assert codes == [0, 0, 2, 0, 0, 0]
    err = capsys.readouterr().err
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["zeros", "--r", "2", "--alpha", "inf", "--n", "3"], 2),
        (["zeros", "--r", "2", "--beta", "inf", "--n", "3"], 2),
        (["coeffs", "--r", "2", "--alpha=-inf", "--n", "2"], 2),
        (["verify", "--suite", "ode", "--r", "2", "--beta", "nan", "--n-max", "2"], 2),
        (["figure2", "--samples", "10", "--svg", "{tmp}/missing/x.svg"], 3),
        (["figure2", "--samples", "10", "--svg", "{tmp}"], 3),  # a directory
        (["density", "--r", "90", "--samples", "5"], 2),
        (["density", "--r", "100", "--samples", "5"], 2),
        (["density", "--r", "400", "--samples", "5"], 2),
        # values outside the double range
        (["coeffs", "--r", "2", "--alpha", "300", "--beta", "1e5", "--n", "2"], 3),
        (["coeffs", "--r", "2", "--alpha", "300", "--beta", "1e5", "--n", "2",
          "--family", "diag"], 3),
        (["coeffs", "--r", "2", "--alpha", "300", "--beta", "1e5", "--n", "2",
          "--family", "up", "--k", "1"], 3),
        (["coeffs", "--r", "2", "--alpha", "300", "--beta", "1e5", "--n", "2",
          "--family", "down", "--k", "2"], 3),
        (["coeffs", "--r", "2", "--alpha", "1e308", "--beta", "1e308", "--n", "2",
          "--family", "up", "--k", "1"], 3),
        (["verify", "--suite", "orthogonality", "--r", "2", "--alpha", "300",
          "--beta", "1e5", "--n-max", "2"], 3),
        (["verify", "--suite", "recurrence", "--r", "2", "--alpha", "300",
          "--beta", "1e5", "--n-max", "2"], 3),
        (["verify", "--suite", "ode", "--r", "2", "--alpha", "300",
          "--beta", "1e5", "--n-max", "2"], 3),
        # coefficients of p_n too large to round to the zero finder's integers
        (["zeros", "--r", "2", "--alpha", "1e300", "--beta", "1e300", "--n", "1"], 3),
        (["verify", "--suite", "zeros", "--r", "2", "--alpha", "1e300",
          "--beta", "1e300", "--n-max", "1"], 3),
        # coefficient integers too wide to allocate
        (["zeros", "--r", "6", "--alpha", "1e20", "--beta", "1e20", "--n", "1"], 3),
        # an r past the index range, rejected before anything is allocated
        (["coeffs", "--r", "100000000000000000000", "--n", "1"], 3),
        (["coeffs", "--r", "100000000000000000000", "--n", "0", "--family", "up",
          "--k", "1"], 3),
        (["recurrence", "--r", "100000000000000000000", "--n-max", "1"], 3),
    ],
)
def test_bad_input_is_one_error_line(argv, want, tmp_path, capsys):
    code, out = run_cli([a.format(tmp=tmp_path) for a in argv])
    assert code == want
    assert out == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "module, name, argv, message",
    [
        # numpy's messages, e.g. for the up stack's phase exponents at r = 50000
        ("cli", "type1_up",
         ["coeffs", "--r", "50000", "--n", "0", "--family", "up", "--k", "1"],
         "Unable to allocate 18.6 GiB for an array with shape (50000, 50000, 1) and data type int64"),
        ("cli", "verify_level",
         ["verify", "--suite", "orthogonality", "--r", "20000", "--n-max", "1"],
         "Unable to allocate 5.96 GiB for an array with shape (20000, 20000, 2) and data type int64"),
        ("cli", "density_curve",
         ["density", "--r", "3", "--samples", "300000000"],
         "Unable to allocate 2.24 GiB for an array with shape (300000000,) and data type float64"),
        # the list of r alphas that the range guard sums, at r = 3e9: no message
        ("polynomials", "_affine", ["coeffs", "--r", "3000000000", "--n", "1"], ""),
    ],
)
def test_a_size_that_does_not_fit_in_memory_is_one_error_line(module, name, argv, message,
                                                              monkeypatch, capsys):
    # the library call raises MemoryError as it would at these sizes; nothing
    # is allocated for real
    import angelesco.cli
    import angelesco.polynomials

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    modules = {"cli": angelesco.cli, "polynomials": angelesco.polynomials}
    monkeypatch.setattr(modules[module], name, out_of_memory)
    code, out = run_cli(argv)
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message or 'an allocation failed'}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--r", "143", "--n", "2"],
        ["zeros", "--r", "200", "--n", "3"],
        ["verify", "--suite", "zeros", "--r", "1000", "--n-max", "2"],
    ],
)
def test_zeros_past_the_power_overflow(argv, capsys):
    # c_r = (r+1)^(r+1)/r^r: its powers overflow from r = 143
    code, out = run_cli(argv)
    assert code == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "zeros":
        assert len(out.splitlines()) == int(argv[-1]) + 1  # header and n zeros
    else:
        assert out.endswith("suite=zeros overall=pass\n")


def test_zeros_not_isolated_is_a_verification_failure(capsys):
    # for alpha, beta far above n the zeros crowd into a window that the
    # quantile grid of the n -> inf limit misses at every level and digits;
    # ZeroFindingError is exit 1, reported as one error line
    code, out = run_cli(["zeros", "--r", "3", "--alpha", "3e4", "--beta", "3e4", "--n", "5"])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


_LONG_VERIFY = ["verify", "--suite", "orthogonality", "--r", "3", "--n-max", "30"]


@pytest.mark.parametrize(
    "argv, unbuffered",
    [(_LONG_VERIFY, False), (_LONG_VERIFY, True), (["verify", "--help"], False)],
    ids=["buffered", "unbuffered", "help"],
)
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    # stdout is a pipe whose reader has gone, as under `| head -1`: exit 3
    # with one error line, and no traceback from the run or from the flush
    # at exit (unbuffered, argparse itself drops a help text it cannot write)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import angelesco

    env = dict(os.environ, PYTHONPATH=str(Path(angelesco.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "angelesco.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.decode() == "error: cannot write stdout: Broken pipe\n"


# (argv, exit code, sha256 prefix of stdout, stderr and the SVG written):
# every subcommand, both formats and each exit code, pinned byte for byte
_DIGEST_CORPUS = [
    ("coeffs --r 2 --alpha 0.7 --beta -0.5 --n 4", 0, "482cf7bd76cfa9a3"),
    ("coeffs --r 2 --alpha 0.7 --beta -0.5 --n 4 --format json", 0, "80c442b3747dc94a"),
    ("coeffs --r 3 --n 3 --family diag", 0, "a08bbdd564eea693"),
    ("coeffs --r 3 --n 3 --family diag --format json", 0, "f89d9787b8bb34f7"),
    ("coeffs --r 3 --alpha 2 --beta 0.5 --n 3 --family up --k 2", 0, "be6872aa7ee99e6d"),
    ("coeffs --r 3 --alpha 2 --beta 0.5 --n 3 --family down --k 3 --format json", 0, "c693612c21aeedc1"),
    ("coeffs --r 1 --alpha -0.5 --beta -0.5 --n 1 --family down --k 1", 0, "3b371444219f3fb5"),
    # rows whose bytes follow the printing rules: at r = 1, 2 and 4 the
    # phases are exactly +-1 or +-i, so whole rows come out real (their
    # imaginary column prints +0), and the down vector's row k ends a
    # column early at its exact zero top coefficient
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family diag", 0, "5aa843c2f4b8611a"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family diag --format json", 0, "1e8f82dcf6b8e659"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family up --k 1", 0, "ccc1303d7f096fe9"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family up --k 1 --format json", 0, "a6fc75097876dc0f"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family down --k 1", 0, "03dd34e454fb5e9c"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 12 --family down --k 1 --format json", 0, "b462ea59fab96bba"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family diag", 0, "1038fe487003e3c7"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family diag --format json", 0, "795707113b911d97"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family up --k 2", 0, "ab1a1c8745540f2d"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family up --k 2 --format json", 0, "19f78043751714e5"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family down --k 2", 0, "5317f496ead1966d"),
    ("coeffs --r 2 --alpha 2 --beta 0.7 --n 3 --family down --k 2 --format json", 0, "4e9a2a1f1bfd8166"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family diag", 0, "00b9571c43529852"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family diag --format json", 0, "5e4f9e08d0c1a01e"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family up --k 4", 0, "7236f893ce7cbab1"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family up --k 4 --format json", 0, "c0675bd30c981c60"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family down --k 4", 0, "3911f1cea76b62a2"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 4 --family down --k 4 --format json", 0, "a79ad9ff296503dd"),
    ("coeffs --r 1 --alpha 0.7 --beta -0.5 --n 0", 0, "8c45b177fc97c9ec"),
    ("coeffs --r 4 --alpha -0.5 --beta 2 --n 0 --format json", 0, "b67760a68702f230"),
    ("coeffs --r 2 --n 1 --family up", 2, "e68fe57d9aa83556"),
    ("coeffs --r 2 --n 1 --family up --k 3", 2, "c13814ca3042a6cc"),
    ("coeffs --r 2 --n 1 --family base --k 1", 2, "f7de8ea26d3aaca9"),
    ("coeffs --r 2 --n -1", 2, "cfb0366958d3b1b5"),
    ("coeffs --r 2 --n -1 --family up --k 1", 2, "ba7f643639182364"),
    ("coeffs --r 2 --n 0 --family diag", 2, "0658945f69007c82"),
    ("coeffs --r 0 --n 2", 2, "6ea9407c04e1a037"),
    ("coeffs --r 2 --alpha -1 --n 2", 2, "55974b91a7abba30"),
    ("coeffs --r 1 --alpha -0.5 --beta -0.5 --n 0", 2, "692f98690070139a"),
    ("coeffs --r 2 --n 61", 3, "89c8a126ed4a673c"),
    ("coeffs --r 2 --alpha 300 --beta 1e5 --n 2 --family diag", 3, "cfcb1885d0be787b"),
    ("verify --suite orthogonality --r 2 --alpha 0.7 --beta -0.5 --n-max 4", 0, "51e39195b76cfaf9"),
    # the shapes the benchmark runs: stacks of up to r = 8 vectors, levels to
    # 24, and the r = 1 down vectors, which read the diagonal's rows
    ("verify --suite orthogonality --r 1 --n-max 24", 0, "124816b7658bf984"),
    ("verify --suite orthogonality --r 4 --alpha 2 --beta -0.5 --n-max 12", 0, "36d1fa189319d530"),
    ("verify --suite orthogonality --r 5 --alpha -0.5 --beta 0.7 --n-max 24", 0, "6dc461855df8758e"),
    ("verify --suite orthogonality --r 8 --alpha 0.7 --beta -0.5 --n-max 12", 0, "0c3cb3bc46613122"),
    ("verify --suite orthogonality --r 3 --alpha -0.999 --beta -0.999 --n-max 12", 0, "459f9b5db5ddd522"),
    ("verify --suite recurrence --r 3 --n-max 4", 0, "17aad0c77648df74"),
    ("verify --suite ode --r 2 --n-max 4", 0, "db8a37202f616c2d"),
    ("verify --suite lowering --r 3 --n-max 4", 0, "8f786bcab3d3caed"),
    ("verify --suite raising --r 2 --alpha 2 --beta 2 --n-max 4", 0, "f2110c5b63be024d"),
    ("verify --suite zeros --r 2 --n-max 4", 0, "56121c3cad7b8579"),
    ("verify --suite orthogonality --r 3 --n-max 3 --tol 1e-30", 1, "b0cb8d55509f830f"),
    ("verify --suite zeros --r 3 --alpha 1e4 --beta 1e4 --n-max 3", 1, "9dc6a295e641181a"),
    ("verify --suite recurrence --r 1 --n-max 2", 2, "88df01d06f45348e"),
    ("verify --suite raising --r 2 --n-max 2", 2, "50d52baf1817e17e"),
    ("verify --suite ode --r 2 --n-max 0", 2, "4a083246a97f61e5"),
    ("verify --suite ode --r 2 --n-max 61", 3, "83add2fe5e088e11"),
    ("verify --suite ode --r 2 --alpha 300 --beta 1e5 --n-max 2", 3, "4b2a858bdb8bf211"),
    # base_poly(5) peaks at 1.8e302 there, and an identity term overflows:
    # these printed numpy warnings and nan FAIL at n = 5, then exit 3 at n = 6
    ("verify --suite ode --r 2 --alpha 15 --beta 9e15 --n-max 6", 3, "32ec9f401e115bbd"),
    ("verify --suite raising --r 2 --alpha 15 --beta 9e15 --n-max 6", 3, "06a65347f9abe670"),
    ("zeros --r 2 --alpha 0.7 --beta -0.5 --n 6", 0, "1632b54de13ebc1a"),
    ("zeros --r 3 --n 5 --format json", 0, "9aa3107d3fe5135f"),
    ("zeros --r 3 --alpha 1e4 --beta 1e4 --n 3", 1, "c6c77bae801302ec"),
    ("zeros --r 2 --n 0", 2, "698e65c09455ca92"),
    ("zeros --r 2 --alpha inf --n 3", 2, "55974b91a7abba30"),
    ("zeros --r 2 --n 61", 3, "89c8a126ed4a673c"),
    ("zeros --r 2 --alpha 1e300 --beta 1e300 --n 1", 3, "39a8dac8cf09e893"),
    ("recurrence --r 3 --alpha 0.7 --beta -0.5 --n-max 5", 0, "5a98bb532e86770c"),
    ("recurrence --r 2 --n-max 4 --format json", 0, "dc0fbf0d3a4ce7a7"),
    ("recurrence --r 1 --n-max 3", 2, "a833b98cd36954c2"),
    ("recurrence --r 2 --n-max 0", 2, "4a083246a97f61e5"),
    # the profiles take the constructors' range guard: these printed a = nan,
    # b = 1/sqrt(pi); a = 0, b = 1; and a(2) = 0.249, each with exit 0
    ("recurrence --r 2 --alpha 1e300 --n-max 2", 3, "9a43d4e2b7b7f288"),
    ("recurrence --r 3 --beta 1e300 --n-max 2", 3, "fa8d8aea82608d43"),
    ("recurrence --r 3 --alpha 1e17 --n-max 2", 3, "cb658d5fb91f37c7"),
    # known wrong, pinned so that any change to them shows: ROADMAP item 1's
    # paired gamma kernel regenerates both.  An all-zero down vector (X =
    # r(1 + alpha) + 1 + beta is an integer in decimal, not in doubles), and
    # profiles whose a(n) is wrong at alpha = 1e15
    ("coeffs --r 2 --alpha -0.9 --beta -0.2 --n 1 --family down --k 1", 0, "c96b3b6155cc543f"),
    ("recurrence --r 3 --alpha 1e15 --beta 0 --n-max 3", 0, "800334bab001303d"),
    ("density --r 3 --samples 99", 0, "03e04d716af00eb2"),
    ("density --r 2 --samples 7 --format json", 0, "98315e98920e24a4"),
    ("density --r 90 --samples 5", 2, "02f89a7149ae65eb"),
    ("density --r 2 --samples 0", 2, "3b5c2197abdb02ae"),
    ("figure2 --samples 10 --svg {tmp}/f.svg", 0, "9a1a7e38d8606968"),
    ("figure2 --samples 2001 --svg=", 0, "67c1d30e28be5320"),
    ("figure2 --samples 9 --svg=", 2, "60fc713fd3f15225"),
    ("figure2 --samples 10 --svg {tmp}/missing/f.svg", 3, "cd5451f720eb443a"),
]


@pytest.mark.parametrize("argv, code, digest", _DIGEST_CORPUS, ids=[c[0] for c in _DIGEST_CORPUS])
def test_cli_bytes_are_pinned(argv, code, digest, tmp_path):
    import contextlib
    import hashlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv.format(tmp=tmp_path).split())
    h = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue().replace(str(tmp_path), "{tmp}")):
        h.update(text.encode() + b"\0")
    svg = tmp_path / "f.svg"
    if svg.exists():
        h.update(svg.read_bytes())
    assert (got, h.hexdigest()[:16]) == (code, digest)

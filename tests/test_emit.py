"""The array float formatter: byte for byte Python's repr, and the outputs built on it."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_emit
from switchosc import RangeError, cli, emit, wigner_grid
from switchosc.frequency import OscParams
from switchosc.wigner import grid_to_csv, grid_to_json


def table(a, sep=",", row_sep="\n") -> str:
    return "".join(emit.table_chunks(a, sep, row_sep))


def assert_reprs(values) -> None:
    """The formatter writes each value as repr does."""
    values = np.asarray(values, dtype=np.float64).ravel()
    got = table(values.reshape(1, -1), " ", "")
    expected = " ".join(map(repr, values.tolist()))
    if got != expected:
        bad = [(e, g) for e, g in zip(expected.split(" "), got.split(" ")) if e != g]
        pytest.fail(f"{len(bad)} values differ from repr, first (repr, written): {bad[:10]}")


def assert_text(got: str, expected: str) -> None:
    """got == expected, reported at the first difference rather than as a diff of the whole text."""
    if got != expected:
        at = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
                  min(len(got), len(expected)))
        lo = max(at - 30, 0)
        pytest.fail(f"texts differ first at {at}: written {got[lo:at + 30]!r}, expected {expected[lo:at + 30]!r}")


def grid_text(q, p, w) -> str:
    """The lines ``q,p,w`` of a grid, by repr."""
    return "\n".join(f"{qv!r},{pv!r},{wv!r}" for qv, row in zip(q.tolist(), w.tolist())
                     for pv, wv in zip(p.tolist(), row))


class TestDeterministicSweep:
    def test_zeros_extremes_and_layout_boundaries(self):
        assert_reprs([0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.7976931348623157e308,
                      -1.7976931348623157e308, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
                      1e-4, 1e-5, 0.00011, 9.999999999999999e-05, 123.0, -123.0, 1.0, 0.1,
                      1e22, 1e23, 5e-310, 12345678901234567.0, 0.3, 2.0 / 3.0])

    def test_powers_of_two_and_their_neighbours(self):
        p2 = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_reprs(np.concatenate((p2, np.nextafter(p2, np.inf), np.nextafter(p2, 0.0), -p2)))

    def test_powers_of_ten(self):
        p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_reprs(np.concatenate((p10, -p10, np.nextafter(p10, np.inf), np.nextafter(p10, 0.0))))

    def test_first_subnormals(self):
        assert_reprs(np.arange(1, 100001, dtype=np.uint64).view(np.float64))

    def test_seeded_random_bit_patterns(self):
        bits = np.random.default_rng(20201103).integers(0, 2 ** 64, size=200000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_reprs(values[np.isfinite(values)])


@settings(max_examples=60, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_table_is_written_as_repr_joins_it(a):
    assert table(a) == "\n".join(",".join(map(repr, row)) for row in a.tolist())


class TestShapes:
    # (1365, 3), (4096, 1) and (2, 4096) end one value before, at and one row after a block's end
    @pytest.mark.parametrize("shape", [(0, 6), (1, 1), (1, 7), (9, 1), (3, 5), (2047, 1), (1365, 3),
                                       (4096, 1), (2, 4096), (1, 4097), (2050, 3)])
    @pytest.mark.parametrize("seps", [(",", "\n"), (",", "],["), ("", "")])
    def test_shape_and_separators(self, shape, seps):
        a = np.random.default_rng(sum(shape)).standard_normal(shape) * 10.0 ** (np.arange(shape[1]) % 40 - 20)
        assert table(a, *seps) == seps[1].join(seps[0].join(map(repr, row)) for row in a.tolist())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        a = np.ones((3, 4))
        a[1, 2] = bad
        with pytest.raises(RangeError):
            table(a)
        with pytest.raises(RangeError):
            "".join(emit.grid_chunks(np.arange(3.0), np.arange(4.0), a))
        with pytest.raises(RangeError):
            "".join(emit.grid_chunks(np.array([0.0, bad, 1.0]), np.arange(4.0), np.ones((3, 4))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, emit.BLOCK - 1, emit.BLOCK, 2 * emit.BLOCK + 9])
    def test_a_non_finite_value_in_any_block_is_refused(self, at, bad):
        # 4105 rows of 2: three blocks of a table, three of a grid (2048 rows of 2 a block)
        a = np.ones(2 * emit.BLOCK + 10)
        a[at] = bad
        a = a.reshape(-1, 2)
        with pytest.raises(RangeError):
            table(a)
        with pytest.raises(RangeError):
            "".join(emit.grid_chunks(np.arange(float(len(a))), np.arange(2.0), a))

    def test_grid_lines(self):
        rng = np.random.default_rng(7)
        q, p = np.sort(rng.standard_normal(17)), -np.sort(rng.random(300))
        w = rng.random((17, 300)) * 10.0 ** rng.integers(-8, 3, (17, 300))
        assert "".join(emit.grid_chunks(q, p, w)) == grid_text(q, p, w)

    def test_tables_match_an_exact_construction(self):
        t = emit._tables()
        g = []
        for k in range(emit._K_MIN, emit._K_MAX + 1):
            # the power of two that scales 10**-k into [2**125, 2**126)
            v = Fraction(10) ** -k
            r = v.numerator.bit_length() - v.denominator.bit_length() - 126
            while v / Fraction(2) ** r >= 2 ** 126:
                r += 1
            assert v / Fraction(2) ** r >= 2 ** 125
            g.append(int(v / Fraction(2) ** r) + 1)
        assert t.g1.tolist() == [v >> 63 for v in g]
        assert t.g0.tolist() == [v & (2 ** 63 - 1) for v in g]
        assert t.pow10.tolist() == [10 ** j for j in range(19)]
        # the modes in the order of emit._FULL, _LEAD, _LEAD1, _TRAIL, _TRAIL1
        modes = (lambda n: f"{n:04d}", lambda n: (str(n) if n else "").rjust(4, "\0"),
                 lambda n: str(n).rjust(4, "\0"), lambda n: f"{n:04d}".rstrip("0").ljust(4, "\0"),
                 lambda n: (f"{n:04d}".rstrip("0") or "0").ljust(4, "\0"))
        assert t.groups.tolist() == [int.from_bytes(mode(n).encode(), "little")
                                     for mode in modes for n in range(10000)]
        exp = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(-324, 309)) + bytes(8)
        assert t.exp.shape == (634, 2) and t.exp.tobytes() == exp

    def test_no_table_is_built_at_import(self):
        code = ("import switchosc.cli, switchosc.emit as e; "
                "assert e._tables.cache_info().currsize == 0")
        src = str(Path(emit.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


class TestPlanesThatAreSkipped:
    """A block writes the sign, the upper integer and the exponent words only when one of its values needs them."""

    # each needs one optional plane that values in [1e-3, 1e4) do not
    ONE_VALUE = [-1.5, -0.0, 1e4, 1e8, 1e12, 9999999999999998.0, 1.5e-5, 9.999999999999999e-05,
                 1e16, 2.5e17]
    # first and last of the first block, first, inside and last of the second
    AT = (0, emit.BLOCK - 1, emit.BLOCK, emit.BLOCK + 100, 2 * emit.BLOCK - 3)

    @staticmethod
    def plain(size: int, seed: int = 3) -> np.ndarray:
        values = np.random.default_rng(seed).uniform(1e-3, 1e4, size)
        values[:4] = [9999.999999999998, 0.001, 1.0, 0.5]
        return values

    @pytest.mark.parametrize("seps", [(",", "\n"), (",", "],[")])
    @pytest.mark.parametrize("value", ONE_VALUE)
    def test_one_value_needs_a_plane(self, value, seps):
        # 1170 rows of 7 span two blocks, and rows cross the block boundary
        for at in self.AT:
            a = self.plain(2 * emit.BLOCK - 2)
            a[at] = value
            a = a.reshape(-1, 7)
            expected = seps[1].join(seps[0].join(map(repr, row)) for row in a.tolist())
            assert_text(table(a, *seps), expected)

    def test_grid_blocks_of_different_widths(self):
        # 13 rows of 300 lines a block; the blocks need 7, 9, 9, 13 and 9 words a value,
        # so the line buffer is rebuilt three times mid-grid, once for a narrower block
        rng = np.random.default_rng(11)
        q, p = np.linspace(-3.0, 4.0, 57), np.linspace(-2.5, 2.5, 300)
        w = rng.random((57, 300))
        w[20, 7] = 1e-20
        w[40, 0], w[45, 299] = -0.0, 12345.5
        w[56, 299] = 1e17
        assert_text("".join(emit.grid_chunks(q, p, w)), grid_text(q, p, w))


def shortest_calls(monkeypatch) -> list:
    """The number of values of each ``emit._shortest`` call; the calls still run."""
    sizes = []
    real = emit._shortest

    def record(bits):
        sizes.append(bits.size)
        return real(bits)

    monkeypatch.setattr(emit, "_shortest", record)
    return sizes


def palindrome(n: int, seed: int = 5) -> np.ndarray:
    """``n`` values in [1e-3, 1e3) that read the same backwards, bit for bit."""
    half = np.random.default_rng(seed).uniform(1e-3, 1e3, (n + 1) // 2)
    return np.concatenate((half, half[:n // 2][::-1]))


class TestMirroredSequences:
    """A sequence that equals its own reverse bit for bit is formatted in its first half only."""

    B = emit.BLOCK
    # the middle value inside the first block (1 to B + 1), at the end of the first
    # (2B - 1: value B - 1), at the start of the second (2B + 1: value B), and the
    # two halves meeting on a block's end (2B) or inside a block (2B + 2, 3B + 10)
    LENGTHS = (1, 2, 3, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 2, 3 * B + 10)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_palindromes_of_one_row_and_of_one_column(self, monkeypatch, n):
        x = palindrome(n)
        sizes = shortest_calls(monkeypatch)
        assert_text(table(x.reshape(1, -1), " ", ""), " ".join(map(repr, x.tolist())))
        assert sum(sizes) == (n + 1) // 2
        assert_text(table(x.reshape(-1, 1), ",", "],["), "],[".join(map(repr, x.tolist())))

    @pytest.mark.parametrize("shape", [(1365, 6), (2731, 3), (3, 2731), (2049, 4)])
    def test_palindromic_tables_of_several_columns(self, shape):
        a = palindrome(shape[0] * shape[1]).reshape(shape)
        assert_text(table(a, ",", "\n"), "\n".join(",".join(map(repr, row)) for row in a.tolist()))

    # each needs a word plane that values in [1e-3, 1e3) do not
    WIDER = (-1.5, -0.0, 12345.5, 2.5e17, 1.5e-5)

    @pytest.mark.parametrize("value", WIDER)
    @pytest.mark.parametrize("at", [0, 3, B - 1, B, B + 4])
    def test_mirrored_blocks_of_different_widths(self, value, at):
        # 2B + 10 values: the first half ends 5 values into the second block, so the
        # second block copies words from both kept blocks, and the third from the first
        x = palindrome(2 * self.B + 10, seed=at)
        x[at] = x[-1 - at] = value
        assert_text(table(x.reshape(1, -1), ",", ""), ",".join(map(repr, x.tolist())))
        a = x.reshape(-1, 2)
        assert_text(table(a, ",", "\n"), "\n".join(",".join(map(repr, row)) for row in a.tolist()))

    @pytest.mark.parametrize("n_q", [26, 27, 57, 58])
    @pytest.mark.parametrize("wide", [(), ((0, 5), -0.5), ((13, 0), 1e4), ((12, 299), 1e-300)])
    def test_grids_that_read_the_same_backwards(self, monkeypatch, n_q, wide):
        # 13 rows of 300 a block: the middle row ends the second block for 26 rows,
        # and lies inside one for 27, 57 and 58
        rng = np.random.default_rng(n_q)
        q, p = np.sort(rng.standard_normal(n_q)), np.linspace(-2.5, 2.5, 300)
        w = palindrome(n_q * 300, seed=n_q).reshape(n_q, 300)
        if wide:
            (i, j), value = wide
            w[i, j] = w[-1 - i, -1 - j] = value
        sizes = shortest_calls(monkeypatch)
        assert_text("".join(emit.grid_chunks(q, p, w)), grid_text(q, p, w))
        assert sum(sizes) == (w.size + 1) // 2

    @pytest.mark.parametrize("n", [2, 2 * emit.BLOCK + 10, 3 * emit.BLOCK + 1])
    @pytest.mark.parametrize("at", [0, emit.BLOCK - 1])
    @pytest.mark.parametrize("change", ["signed zero", "last bit"])
    def test_near_palindromes_take_the_plain_path(self, monkeypatch, n, at, change):
        # both equal their reverse under float ==, which must not decide
        x = palindrome(n)
        at = min(at, n // 2 - 1)
        if change == "signed zero":
            x[at], x[-1 - at] = 0.0, -0.0
        else:
            x[at] = np.nextafter(x[at], np.inf)
        sizes = shortest_calls(monkeypatch)
        assert_text(table(x.reshape(1, -1), ",", ""), ",".join(map(repr, x.tolist())))
        assert sum(sizes) == n
        for w in (x.reshape(1, -1), x.reshape(-1, 1)):
            q, p = np.arange(float(len(w))), np.linspace(-1.0, 1.0, w.shape[1])
            assert_text("".join(emit.grid_chunks(q, p, w)), grid_text(q, p, w))
        assert sum(sizes) == 3 * n


class TestDocumentLayout:
    """format_value, csv_pieces and json_pieces against the reference renderers and json.dumps."""

    @pytest.mark.parametrize("v", [True, False, 0.5, -0.0, 1e-05, 1e16, 3, "rk45", [0.5, 2.0], []])
    def test_format_value(self, v):
        assert emit.format_value(v) == reference_emit.header_value(v)

    @pytest.mark.parametrize("comments, body, expected", [
        ((), [], "a,b\n"),
        ((("alpha", 0.5), ("adaptive", True)), [], "# alpha = 0.5\n# adaptive = true\na,b\n"),
        ((("t", [1.0, 2.0]),), ["1.0,2.0", "\n3.0,4.0"], "# t = [1.0, 2.0]\na,b\n1.0,2.0\n3.0,4.0\n"),
    ])
    def test_csv_pieces(self, comments, body, expected):
        assert "".join(emit.csv_pieces(comments, "a,b", iter(body))) == expected

    @pytest.mark.parametrize("shapes", [[(5,)], [(3, 2)], [(0, 6)], [(4,), (2, 7)]])
    def test_json_pieces(self, shapes):
        rng = np.random.default_rng(len(shapes))
        arrays = [(f"a{j}", rng.standard_normal(shape)) for j, shape in enumerate(shapes)]
        doc = {"config": {"alpha": 0.5, "method": "rk45"}, "columns": ["x", "y"]}
        expected = json.dumps({**doc, **{k: a.tolist() for k, a in arrays}}, separators=(",", ":")) + "\n"
        assert "".join(emit.json_pieces(doc, arrays)) == expected


def recorded(monkeypatch, name: str) -> list:
    """The (args, kwargs) of each call of ``cli.<name>``; the calls still run."""
    calls = []
    real = getattr(cli, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, record)
    return calls


class TestOutputsMatchTheReferenceRenderers:
    """Every emitter writes the bytes that the repr/json.dumps renderers wrote."""

    def check(self, capsys, monkeypatch, *argv):
        calls = recorded(monkeypatch, "_emit_table")
        assert cli.main(list(argv)) == 0
        ((args, kwargs),) = calls
        assert capsys.readouterr().out == reference_emit.emit_table(*args, **kwargs)
        return args[2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("alpha", ["0", "0.5", "0.97"])
    @pytest.mark.parametrize("command", ["profile", "epsilon", "phase-diagram", "moments"])
    def test_tables(self, capsys, monkeypatch, command, alpha, fmt):
        self.check(capsys, monkeypatch, command, f"--alpha={alpha}", f"--format={fmt}", "--samples=101")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_of_several_blocks(self, capsys, monkeypatch, fmt):
        rows = self.check(capsys, monkeypatch, "epsilon", f"--format={fmt}", "--samples=1500")
        assert rows.size > 2 * emit.BLOCK

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_coherence_without_events(self, capsys, monkeypatch, fmt):
        rows = self.check(capsys, monkeypatch, "coherence", "--t0=2", "--t1=2.1", f"--format={fmt}")
        assert rows.shape == (0, 6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_always_coherent_scan(self, capsys, monkeypatch, fmt):
        self.check(capsys, monkeypatch, "coherence", "--alpha=0", f"--format={fmt}")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_coherence_on_the_array_path(self, capsys, monkeypatch, fmt):
        rows = self.check(capsys, monkeypatch, "coherence", "--t0=2", "--t1=300", f"--format={fmt}")
        assert len(rows) > 100

    @pytest.mark.parametrize("n", [16, 33, 48, 97])
    def test_grids(self, n):
        # 97 * 100 values span three blocks
        g = wigner_grid(0.4, 0.3 - 1.1j, OscParams(alpha=0.3), resolution=(n, n + 3))
        comments = (("n_sigma", "6.0"), ("normalization", "0.9999999999999998"))
        assert grid_to_csv(g, comments) == reference_emit.grid_to_csv(g, comments)
        assert grid_to_json(g, dict(comments)) == reference_emit.grid_to_json(g, dict(comments))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_wigner_command(self, capsys, monkeypatch, tmp_path, fmt):
        # 65 * 65 values span two blocks; the grid goes to stdout, then to a file
        calls = recorded(monkeypatch, f"grid_{fmt}_pieces")
        argv = ["wigner", f"--format={fmt}", "--grid-n=65", "--t=0.8"]
        out = tmp_path / "grid"
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert cli.main([*argv, f"--out={out}"]) == 0
        assert len(calls) == 2
        for (args, kwargs), written in zip(calls, (stdout, out.read_text())):
            assert written == getattr(reference_emit, f"grid_to_{fmt}")(*args, **kwargs)

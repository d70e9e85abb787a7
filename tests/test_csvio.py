import codecs
import csv
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from crowdscore import csvio, shares
from crowdscore.csvio import load_trajectory_csv, save_trajectory_csv
from crowdscore.errors import DataError
from crowdscore.features import FEATURE_CODES, extract
from crowdscore.simulator import Scenario, simulate
from crowdscore.trajectory import derive_kinematics

from helpers import (
    assert_no_child_and_affinity,
    colliding_crowd,
    crowd_arrays,
    crowd_from_positions,
    straight_crowd,
)


def test_round_trip_is_bit_exact(tmp_path):
    crowd = simulate(Scenario(kind="random", agent_count=5, seed=3), duration=3.0)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    back = load_trajectory_csv(path)

    assert back.dt == crowd.dt  # exact, thanks to the canonical-dt snap
    assert back.t0 == crowd.t0
    assert np.array_equal(back.positions, crowd.positions)
    assert np.array_equal(back.velocities, crowd.velocities)
    assert np.array_equal(back.goals, crowd.goals)
    assert np.array_equal(back.comfort_speeds, crowd.comfort_speeds)
    assert np.array_equal(back.body_radii, crowd.body_radii)

    # saving the loaded crowd reproduces the file byte for byte
    path2 = tmp_path / "c2.csv"
    save_trajectory_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_keeps_default_personal_radii_and_features(tmp_path):
    # 0.25 m bodies: the default personal radius is body + 0.2 m both when the
    # crowd is built and when it is read back from its radius column.
    source = colliding_crowd()
    crowd = crowd_from_positions(source.positions, goals=source.goals,
                                 comfort_speeds=source.comfort_speeds, body_radii=0.25)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    back = load_trajectory_csv(path)

    assert np.array_equal(back.personal_radii, crowd.personal_radii)
    before, after = extract(crowd), extract(back)
    assert before["OVP"].max() > 0.0  # the personal discs overlap somewhere
    for code in FEATURE_CODES:
        assert np.array_equal(after[code], before[code]), code


def test_save_writes_agents_in_id_order_with_repr_floats(tmp_path):
    crowd = derive_kinematics([[[0.1, 0.2], [0.3, 0.4]], [[1 / 3, 0.0], [2 / 3, 0.0]]],
                              0.1, t0=0.7, agent_ids=[5, 2], comfort_speeds=[1.25, 1.5],
                              body_radii=[0.25, 0.2])
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)

    expected = ["agent_id,t,x,y,goal_x,goal_y,comfort_speed,radius"]
    for i in (1, 0):  # agent 2 before agent 5
        for k in range(crowd.n_steps):
            values = (crowd.t0 + k * crowd.dt, *crowd.positions[i, k], *crowd.goals[i],
                      crowd.comfort_speeds[i], crowd.body_radii[i])
            expected.append(",".join([str(crowd.agent_ids[i])]
                                     + [repr(float(v)) for v in values]))
    assert path.read_text().splitlines() == expected


def test_save_writes_the_bytes_of_csv_writer(tmp_path):
    """The file is byte for byte what ``csv.writer`` writes from each value's
    ``repr``, agents in id order: unsorted ids, one above 2**53, a -0.0 and
    extreme floats."""
    positions = np.random.default_rng(2).normal(size=(4, 6, 2))
    positions[1, 2, 0] = -0.0
    positions[2, 3, 1] = 1e300
    crowd = derive_kinematics(positions, 0.07, t0=0.35, agent_ids=[2**62 + 1, -5, 7, 0],
                              goals=[[-0.0, 1e-300]] * 4, comfort_speeds=[1.3, 0.1, 2.0, 1 / 3],
                              body_radii=[0.2, 0.3, 0.25, 5e-324])
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(csvio.REQUIRED_COLUMNS + csvio.OPTIONAL_COLUMNS)
    for i in np.argsort(crowd.agent_ids):
        per_agent = (*crowd.goals[i], crowd.comfort_speeds[i], crowd.body_radii[i])
        for k, t in enumerate(crowd.times()):
            values = (t, *crowd.positions[i, k], *per_agent)
            writer.writerow([int(crowd.agent_ids[i])] + [repr(float(v)) for v in values])
    assert b"-0.0," in path.read_bytes()
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("count", [0, 1, 128, 300])
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path, count):
    """Empty, one row, one whole batch of 128 joined lines, and a part batch."""
    fields = [repr(-0.0), repr(1e-05), repr(math.inf), repr(-math.inf), "", repr(5e-324),
              repr(-1e300), "", repr(1 / 3)]
    rows = [[-7 * i, fields[i % len(fields)], fields[(3 * i + 1) % len(fields)], ""]
            for i in range(count)]
    path = tmp_path / "w.csv"
    path.write_bytes(b"x" * 100_000)
    csvio.write_csv(path, ("id", "a", "b", "c"), (",".join(map(str, row)) for row in rows))

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["id", "a", "b", "c"])
    writer.writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode()


def test_minimal_columns_get_derived_defaults(tmp_path):
    path = tmp_path / "min.csv"
    lines = ["agent_id,t,x,y"]
    for k in range(6):
        lines.append(f"7,{k * 0.1},{k * 0.12},0.0")
    path.write_text("\n".join(lines) + "\n")

    crowd = load_trajectory_csv(path)
    assert crowd.agent_ids.tolist() == [7]
    assert crowd.body_radii[0] == pytest.approx(0.3)
    assert np.allclose(crowd.goals[0], [0.6, 0.0])  # final position
    assert crowd.comfort_speeds[0] == pytest.approx(1.2)  # median step speed


def test_radius_column_sets_body_and_personal(tmp_path):
    path = tmp_path / "r.csv"
    lines = ["agent_id,t,x,y,radius"]
    for k in range(4):
        lines.append(f"0,{k * 0.1},{k * 0.1},0.0,0.25")
    path.write_text("\n".join(lines) + "\n")
    crowd = load_trajectory_csv(path)
    assert crowd.body_radii[0] == pytest.approx(0.25)
    assert crowd.personal_radii[0] == pytest.approx(0.45)


def test_rows_may_arrive_unsorted(tmp_path):
    sorted_path = tmp_path / "sorted.csv"
    shuffled_path = tmp_path / "shuffled.csv"
    header = "agent_id,t,x,y"
    rows = [f"{a},{k * 0.1},{a + k * 0.1},{a}" for a in (0, 1) for k in range(5)]
    sorted_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    rng = np.random.default_rng(0)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    shuffled_path.write_text(header + "\n" + "\n".join(shuffled) + "\n")

    a = load_trajectory_csv(sorted_path)
    b = load_trajectory_csv(shuffled_path)
    assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize(
    "header",
    ["x,y,agent_id,t", "t,agent_id,y,x",
     "radius,goal_y,x,comfort_speed,t,goal_x,agent_id,y"],
)
def test_columns_are_read_by_name(tmp_path, header):
    rng = np.random.default_rng(1)
    values = {"agent_id": np.repeat([3, 1], 5), "t": np.tile(np.arange(5) * 0.1, 2),
              "x": rng.normal(size=10), "y": rng.normal(size=10),
              "goal_x": np.repeat([4.0, -4.0], 5), "goal_y": np.repeat([1.0, 2.0], 5),
              "comfort_speed": np.repeat([1.1, 1.5], 5), "radius": np.repeat([0.2, 0.3], 5)}
    names = header.split(",")
    canonical = [c for c in values if c in names]

    def write(path, columns):
        rows = zip(*(values[c].tolist() for c in columns))
        path.write_text("\n".join([",".join(columns)]
                                   + [",".join(map(repr, r)) for r in rows]) + "\n")
        return load_trajectory_csv(path)

    shuffled = write(tmp_path / "shuffled.csv", names)
    reference = write(tmp_path / "reference.csv", canonical)
    assert shuffled.agent_ids.tolist() == [1, 3]
    assert (shuffled.dt, shuffled.t0) == (reference.dt, reference.t0)
    for name, value in crowd_arrays(reference).items():
        assert np.array_equal(getattr(shuffled, name), value), name


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty file"),
        ("agent_id,t,x\n", "missing required column"),
        ("agent_id,t,x,y,vx\n", "unknown columns"),
        ("agent_id,t,x,y,goal_x\n0,0,0,0,1\n0,0.1,1,0,1\n", "must appear together"),
        ("agent_id,t,x,y\n", "no data rows"),
        ("agent_id,t,x,y\n0,0,0,0\n", "at least 2 timesteps"),
        ("agent_id,t,x,y\n0,0,0,0\n0,0.1,oops,0\n", ":3:"),
        ("agent_id,t,x,y\n0,0,0,0\n0,0.1,1,0\n0,0.35,2,0\n", "uniform grid"),
        (
            "agent_id,t,x,y\n0,0,0,0\n0,0.1,1,0\n1,0,0,1\n",
            "does not cover the shared time grid",
        ),
        ("agent_id,t,x,y\n0,0,0,0\n0,0.1,nan,0\n", "non-finite 'x' for agent 0"),
        ("agent_id,t,x,y\n3,0,0,0\n3,inf,1,0\n", "non-finite 't' for agent 3"),
        (
            "agent_id,t,x,y,goal_x,goal_y,comfort_speed,radius\n"
            "0,0,0,0,5,0,1.3,0.25\n0,0.1,0.1,0,5,0,1.3,-inf\n",
            "non-finite 'radius'",
        ),
        (
            "agent_id,t,x,y,goal_x,goal_y,comfort_speed,radius\n"
            "0,0,0,0,5,0,1.3,-0.25\n0,0.1,0.1,0,5,0,1.3,-0.25\n",
            "agent 0: body_radius must be positive, got -0.25",
        ),
        (
            "agent_id,t,x,y,comfort_speed\n4,0,0,0,0\n4,0.1,0.1,0,0\n",
            "agent 4: comfort_speed must be positive, got 0.0",
        ),
        ("agent_id,t,x,y,x\n0,0,0,0,5\n0,0.1,1,0,5\n", "column 'x' appears more than once"),
        ("agent_id,t,agent_id,x,y\n0,0,1,0,0\n0,0.1,1,1,0\n",
         "column 'agent_id' appears more than once"),
    ],
)
def test_malformed_files_raise_data_error(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataError, match=fragment):
        load_trajectory_csv(path)


def test_noncanonical_dt_survives_round_trip(tmp_path):
    crowd = straight_crowd(steps=8)
    # rewrite on a 0.25 s grid via resample-free manual CSV
    path = tmp_path / "slow.csv"
    lines = ["agent_id,t,x,y"]
    for k in range(8):
        lines.append(f"0,{k * 0.25},{k * 0.35},0.0")
    path.write_text("\n".join(lines) + "\n")
    loaded = load_trajectory_csv(path)
    assert loaded.dt == pytest.approx(0.25)
    assert loaded.speeds[0, 0] == pytest.approx(1.4)


def load_outcome(path):
    """Everything a load yields: the crowd bit for bit, or the error raised."""
    try:
        crowd = load_trajectory_csv(path)
    except Exception as exc:  # compared across parsers, whatever it is
        return type(exc).__name__, str(exc)
    arrays = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in crowd_arrays(crowd).items()}
    return "ok", arrays, crowd.dt.hex(), crowd.t0.hex()


def both_parsers(path, monkeypatch, deprecations="error"):
    """(outcome with the array parser, outcome with the row loop alone, array parser used).

    ``deprecations`` is the DeprecationWarning action during the loads:
    the suite's "error", or the "default" a CLI run has.
    """
    used = []
    array_parser = csvio._parse_numeric_body

    def spy(*args):
        result = array_parser(*args)
        used.append(result is not None)
        return result

    with monkeypatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter(deprecations, DeprecationWarning)
        m.setattr(csvio, "_parse_numeric_body", spy)
        fast = load_outcome(path)
        m.setattr(csvio, "_parse_numeric_body", lambda *args: None)
        slow = load_outcome(path)
    return fast, slow, any(used)


DEPRECATIONS = pytest.mark.parametrize("deprecations", ["error", "default"])


def compare_on_mutated_files(tmp_path, monkeypatch, deprecations, each=lambda k: None):
    """Both parsers on 600 seeded mutations of a small crowd's CSV, in four
    flavours; ``each(k)`` runs after the k-th load."""
    crowd = simulate(Scenario(kind="random", agent_count=3, seed=4), duration=0.6)
    base = tmp_path / "base.csv"
    save_trajectory_csv(crowd, base)  # csv.writer: CRLF line ends
    crlf = base.read_bytes()
    assert b"\r\n" in crlf
    lf = crlf.replace(b"\r\n", b"\n")
    flavours = [lf, crlf, crlf.replace(b"\r\n", b"\r"), lf.replace(b",", b", ")]
    rng = np.random.default_rng(2024)
    # and bytes the array parser must decline: whitespace that loadtxt strips
    # and float() may not, a lone UTF-8 continuation byte, NUL, letters of
    # nan and inf, and separators no number holds
    alphabet = b"0123456789eE+-.,\n\r \t\"ax\xff\x0b\x0c\x1c\x1f\xa0\x00nif_#;"
    counts = {"fast": 0, "ok": 0, "error": 0}
    for k in range(600):
        data = bytearray(flavours[k % len(flavours)])
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(0, len(data)))
            op = rng.integers(0, 3)
            byte = alphabet[int(rng.integers(0, len(alphabet)))]
            if op == 0:
                data[at] = byte
            elif op == 1:
                data.insert(at, byte)
            else:
                del data[at]
        path = tmp_path / f"m{k}.csv"
        path.write_bytes(bytes(data))
        fast, slow, used = both_parsers(path, monkeypatch, deprecations)
        assert fast == slow, (k, bytes(data))
        each(k)
        counts["fast"] += used
        counts["ok" if fast[0] == "ok" else "error"] += 1
    # the mutations exercise both parsers and both outcomes
    assert min(counts.values()) >= 40, counts


@DEPRECATIONS
def test_array_parser_matches_row_loop_on_mutated_files(tmp_path, monkeypatch, deprecations):
    compare_on_mutated_files(tmp_path, monkeypatch, deprecations)


def split_parse(monkeypatch, cpus):
    """Cut every CSV body of ``cpus`` bytes or more into ``cpus`` line-aligned
    parts, one per share of the parse (forked, pinned round this host's CPUs)."""
    monkeypatch.setattr(shares, "PARSE_BYTES", 1)
    monkeypatch.setattr(shares, "usable_cpus", lambda: cpus)


def test_split_parse_matches_row_loop_on_mutated_files(tmp_path, monkeypatch, affinity):
    split_parse(monkeypatch, 2)

    def next_split(k):
        assert_no_child_and_affinity(affinity)
        split_parse(monkeypatch, 2 + (k + 1) % 3)

    compare_on_mutated_files(tmp_path, monkeypatch, "error", next_split)


FIXED_CASES = pytest.mark.parametrize(
    "content,expected",
    [
        # a fifth field on every row of a four-column file
        ("agent_id,t,x,y\n0,0,0,0,9\n0,0.1,1,0,9\n", ":2: expected 4 fields, got 5"),
        # 2**63 - 1 fits int64, 2**63 does not
        ("agent_id,t,x,y\n9223372036854775807,0,0,0\n9223372036854775807,0.1,1,0\n"
         "9223372036854775808,0,0,1\n9223372036854775808,0.1,1,1\n",
         "agent_id outside the 64-bit integer range"),
        ("agent_id,t,x,y\n9223372036854775807,0,0,0\n9223372036854775807,0.1,1,0\n", None),
        # ids that only a float parse reads
        ("agent_id,t,x,y\n1.0,0,0,0\n1.0,0.1,1,0\n", "invalid literal for int()"),
        ("agent_id,t,x,y\n1.5,0,0,0\n1.5,0.1,1,0\n", "invalid literal for int()"),
        ("agent_id,t,x,y\n1e3,0,0,0\n1e3,0.1,1,0\n", "invalid literal for int()"),
        ("agent_id,t,x,y\n", "no data rows"),
        ("agent_id,t,x,y\r\n", "no data rows"),
        # no final newline, CRLF, hand-written decimals
        ("agent_id,t,x,y\n0,0,.5,-0\n0,0.1,5.,+1e-3", None),
        ("agent_id,t,x,y\r\n0,0,.5,-0\r\n0,0.1,5.,+1E-3\r\n", None),
        ("agent_id,t,x,y\r0,0,.5,-0\r0,0.1,5.,+1E-3\r", None),
    ],
)


def check_fixed_case(path, monkeypatch, expected, deprecations):
    fast, slow, used = both_parsers(path, monkeypatch, deprecations)
    assert fast == slow
    if expected is None:
        assert used and fast[0] == "ok"
    else:
        assert fast[0] == "DataError" and expected in fast[1]


@FIXED_CASES
@DEPRECATIONS
def test_array_parser_fixed_cases(tmp_path, monkeypatch, content, expected, deprecations):
    path = tmp_path / "c.csv"
    path.write_bytes(content.encode())
    check_fixed_case(path, monkeypatch, expected, deprecations)


@FIXED_CASES
@DEPRECATIONS
def test_split_parse_fixed_cases(tmp_path, monkeypatch, content, expected, deprecations,
                                 affinity):
    path = tmp_path / "c.csv"
    path.write_bytes(content.encode())
    for cpus in (2, 3, 4):
        split_parse(monkeypatch, cpus)
        check_fixed_case(path, monkeypatch, expected, deprecations)
        assert_no_child_and_affinity(affinity)


def test_line_ends_and_a_bom_do_not_change_the_load(tmp_path, monkeypatch):
    crowd = simulate(Scenario(kind="random", agent_count=3, seed=4), duration=0.6)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    crlf = path.read_bytes()
    reference = load_outcome(path)
    assert reference[0] == "ok"
    for bom in (b"", codecs.BOM_UTF8):
        for data in (crlf, crlf.replace(b"\r\n", b"\n"), crlf.replace(b"\r\n", b"\r")):
            path.write_bytes(bom + data)
            fast, slow, used = both_parsers(path, monkeypatch)
            assert fast == slow == reference and used, (bom, data[:20])


def test_crlf_and_spaced_files_take_the_array_parser_in_one_copy(tmp_path, monkeypatch):
    crowd = simulate(Scenario(kind="circle", agent_count=40, seed=1), duration=10.0)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    crlf = path.read_bytes()
    lf = crlf.replace(b"\r\n", b"\n")
    path.write_bytes(lf)
    reference = load_outcome(path)
    assert reference[0] == "ok"
    peaks = {}
    for name, data in (("lf", lf), ("crlf", crlf), ("spaced", lf.replace(b",", b", "))):
        path.write_bytes(data)
        fast, slow, used = both_parsers(path, monkeypatch)
        assert fast == slow == reference and used, name
        tracemalloc.start()
        try:
            load_trajectory_csv(path)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a CRLF file is not copied with LF line ends before the parse
    assert peaks["crlf"] <= 1.1 * peaks["lf"], peaks


def legacy_loadtxt(real, fallbacks):
    """np.loadtxt as numpy releases with the int-via-float fallback run it.

    An integer field that does not parse as one is parsed as a float and
    cast, with a DeprecationWarning; when that warning is an error, numpy
    raises it as a ValueError about the field.  Each fallback taken is
    appended to ``fallbacks``.
    """

    def loadtxt(fname, dtype=float, **kwargs):
        dtype = np.dtype(dtype)
        data = fname.read()
        try:
            return real(io.BytesIO(data), dtype=dtype, **kwargs)
        except ValueError:
            if not any(dtype[name] == np.int64 for name in dtype.names or ()):
                raise
            as_float = np.dtype([(name, float) for name in dtype.names])
            values = real(io.BytesIO(data), dtype=as_float, **kwargs)
        fallbacks.append(dtype)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int64") from exc
        return values.astype(dtype)

    return loadtxt


@DEPRECATIONS
@pytest.mark.parametrize("agent_id", ["1.0", "1.5", "1e3", str(2**63)])
def test_array_parser_refuses_int_via_float_ids(tmp_path, monkeypatch, deprecations, agent_id):
    path = tmp_path / "c.csv"
    path.write_text(f"agent_id,t,x,y\n{agent_id},0,0,0\n{agent_id},0.1,1,0\n")
    fallbacks = []
    monkeypatch.setattr(np, "loadtxt", legacy_loadtxt(np.loadtxt, fallbacks))
    fast, slow, used = both_parsers(path, monkeypatch, deprecations)
    assert fast == slow and fast[0] == "DataError" and not used
    assert fallbacks  # the array parser met the fallback and declined


def small_csv(tmp_path, line_end=b"\n"):
    """A path and the bytes of a 3-agent, 6-step crowd's CSV (19 lines)."""
    crowd = simulate(Scenario(kind="random", agent_count=3, seed=4), duration=0.6)
    path = tmp_path / "c.csv"
    save_trajectory_csv(crowd, path)
    data = path.read_bytes().replace(b"\r\n", line_end)
    path.write_bytes(data)
    return path, data


@pytest.mark.parametrize("line", [3, 12, 19])
@pytest.mark.parametrize("bad", [b"0,0.1,1,0x", b"0,0.1,1,0,9", b"0,0.1,1"])
def test_a_bad_line_in_any_part_declines_to_the_row_loop(tmp_path, monkeypatch, affinity,
                                                         line, bad):
    """Line 19 is in the last of four parts, line 12 in the third (both run
    in forked children) and line 3 in the caller's first; the row loop names
    the line either way."""
    path, data = small_csv(tmp_path)
    lines = data.split(b"\n")
    lines[line - 1] = bad
    path.write_bytes(b"\n".join(lines))
    split_parse(monkeypatch, 4)
    fast, slow, used = both_parsers(path, monkeypatch)
    assert_no_child_and_affinity(affinity)
    assert fast == slow and not used
    assert fast[0] == "DataError" and fast[1].startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
def test_split_parse_skips_blank_lines_at_and_between_cuts(tmp_path, monkeypatch, affinity,
                                                           line_end):
    """A blank line after each body line in turn, with and without a final
    line end, so that one ends and one starts every part of every count."""
    path, data = small_csv(tmp_path, line_end)
    reference = load_outcome(path)
    assert reference[0] == "ok"
    lines = data.split(line_end)[:-1]
    for cpus in (2, 3, 4):
        split_parse(monkeypatch, cpus)
        for at in range(1, len(lines) + 1):
            for tail in (line_end, b""):
                path.write_bytes(line_end.join(lines[:at] + [b""] + lines[at:]) + tail)
                fast, slow, used = both_parsers(path, monkeypatch)
                assert_no_child_and_affinity(affinity)
                assert fast == slow == reference and used, (cpus, at, tail)


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
def test_split_parse_joins_its_parts_without_a_copy_unless_a_part_skipped_a_line(
        tmp_path, monkeypatch, affinity, line_end):
    path, data = small_csv(tmp_path, line_end)
    names = data[: data.find(b"\n")].decode().strip().split(",")
    dtype = np.dtype([(h, np.int64 if h == "agent_id" else float) for h in names])
    whole = csvio._parse_numeric_body(data, dtype)
    assert whole.size == 18
    blank_first = data.replace(line_end, line_end * 2, 2)  # blank after the header and row 1
    concatenate, joins = np.concatenate, []
    monkeypatch.setattr(np, "concatenate", lambda *a, **kw: joins.append(a) or concatenate(*a, **kw))
    for cpus in (2, 3, 4):
        split_parse(monkeypatch, cpus)
        for body, copies in ((data, 0), (data.rstrip(), 0), (blank_first, 1)):
            joins.clear()
            rows = csvio._parse_numeric_body(body, dtype)
            assert_no_child_and_affinity(affinity)
            assert rows.tobytes() == whole.tobytes() and len(joins) == copies, (cpus, copies)
            assert rows.flags.owndata == bool(copies)


def test_a_fork_that_warns_still_takes_the_array_parser(tmp_path, monkeypatch, affinity):
    """Python 3.12 and later issue a DeprecationWarning from ``os.fork`` in a
    process with other threads, in the parent, after the child exists.  Under
    the suite's warning-as-error filter the load still forks, reaps its child
    and takes the array parser."""
    path, _ = small_csv(tmp_path)
    reference = load_outcome(path)
    fork, forks = os.fork, []

    def warning_fork():
        pid = fork()
        if pid:
            forks.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    split_parse(monkeypatch, 2)
    fast, slow, used = both_parsers(path, monkeypatch, "error")
    assert_no_child_and_affinity(affinity)
    assert fast == slow == reference and used and forks

import io
import warnings

import numpy as np
import pytest

from crowdscore import csvio
from crowdscore.csvio import load_trajectory_csv, save_trajectory_csv
from crowdscore.errors import DataError
from crowdscore.simulator import Scenario, simulate
from crowdscore.trajectory import derive_kinematics

from helpers import crowd_arrays, straight_crowd


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


def test_save_writes_agents_in_id_order_with_repr_floats(tmp_path):
    crowd = derive_kinematics({5: [[0.1, 0.2], [0.3, 0.4]], 2: [[1 / 3, 0.0], [2 / 3, 0.0]]},
                              0.1, t0=0.7, comfort_speeds=[1.25, 1.5], body_radii=[0.25, 0.2])
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


@DEPRECATIONS
def test_array_parser_matches_row_loop_on_mutated_files(tmp_path, monkeypatch, deprecations):
    crowd = simulate(Scenario(kind="random", agent_count=3, seed=4), duration=0.6)
    base = tmp_path / "base.csv"
    save_trajectory_csv(crowd, base)  # csv.writer: CRLF line ends
    crlf = base.read_bytes()
    assert b"\r\n" in crlf
    rng = np.random.default_rng(2024)
    alphabet = b"0123456789eE+-.,\n\r \t\"ax\xff"
    counts = {"fast": 0, "ok": 0, "error": 0}
    for k in range(400):
        data = bytearray(crlf if k % 2 else crlf.replace(b"\r\n", b"\n"))
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
        counts["fast"] += used
        counts["ok" if fast[0] == "ok" else "error"] += 1
    # the mutations exercise both parsers and both outcomes
    assert min(counts.values()) >= 40, counts


@pytest.mark.parametrize(
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
    ],
)
@DEPRECATIONS
def test_array_parser_fixed_cases(tmp_path, monkeypatch, content, expected, deprecations):
    path = tmp_path / "c.csv"
    path.write_bytes(content.encode())
    fast, slow, used = both_parsers(path, monkeypatch, deprecations)
    assert fast == slow
    if expected is None:
        assert used and fast[0] == "ok"
    else:
        assert fast[0] == "DataError" and expected in fast[1]


def legacy_loadtxt(real):
    """np.loadtxt as numpy releases with the int-via-float fallback run it.

    An integer field that does not parse as one is parsed as a float and
    cast, with a DeprecationWarning; when that warning is an error, numpy
    raises it as a ValueError about the field.
    """

    def loadtxt(fname, dtype=float, **kwargs):
        if dtype is not np.int64:
            return real(fname, dtype=dtype, **kwargs)
        text = fname.read()
        try:
            return real(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            values = real(io.StringIO(text), **kwargs)
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int64") from exc
        return values.astype(np.int64)

    return loadtxt


@DEPRECATIONS
@pytest.mark.parametrize("agent_id", ["1.0", "1.5", "1e3", str(2**63)])
def test_array_parser_refuses_int_via_float_ids(tmp_path, monkeypatch, deprecations, agent_id):
    path = tmp_path / "c.csv"
    path.write_text(f"agent_id,t,x,y\n{agent_id},0,0,0\n{agent_id},0.1,1,0\n")
    monkeypatch.setattr(np, "loadtxt", legacy_loadtxt(np.loadtxt))
    fast, slow, used = both_parsers(path, monkeypatch, deprecations)
    assert fast == slow and fast[0] == "DataError" and not used

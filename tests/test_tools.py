"""The scripts in tools/: the code-line counter and the in-process A/B run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
ab_run = _tool("ab_run")


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""A module docstring,
over two lines."""

# a comment
X = 1  # a comment after code


class C:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        return """a string that is
no docstring"""
'''
    # X = 1, class C:, def f(self):, and the two lines of the returned string
    assert code_lines.code_lines(source) == 5


def test_it_counts_the_package(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["module", "code", "wc", "-l"]
    rows = {line.split()[0]: (int(line.split()[1]), int(line.split()[2])) for line in out[1:]}
    assert "kernel.py" in rows
    total = rows.pop("total")
    assert total == tuple(map(sum, zip(*rows.values())))
    assert all(0 < code <= wc for code, wc in rows.values())


def test_ab_run_of_a_checkout_against_itself(capsys):
    assert ab_run.main(["ab_run.py", str(ROOT), str(ROOT), "--workload", "desk",
                        "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload desk, seed 7, 2 rounds, 389900 events, end states equal"
    assert out[1].split() == ["side", "loop_ms", "wall_ms"]
    assert [line.split()[0] for line in out[2:4]] == ["base", "change"]
    assert all(0 < float(ms) for line in out[2:4] for ms in line.split()[1:])
    assert out[4].startswith("change faster: loop ")


def test_ab_run_stops_at_the_first_round_whose_end_states_differ(monkeypatch, capsys):
    states = iter([(1, 0, 2, 0), (1, 0, 3, 0)])
    monkeypatch.setattr(ab_run, "run_once", lambda pkg, text: (1.0, 2.0, next(states)))
    assert ab_run.main(["ab_run.py", str(ROOT), str(ROOT), "--rounds", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("round 1: end states differ")


def test_ab_run_tells_end_states_apart_by_one_pending_seq(monkeypatch, capsys):
    """The change side's last pending entry takes the next seq, and
    nothing else differs: the run stops at round 1 and names that entry."""
    end_state = ab_run.end_state

    def shifted(pkg, built, sim, summary):
        if pkg.__name__ == "ab_run_change":
            entries = list(sim.fes.pop_before(pkg.kernel.MAX_TIME_NS + 1))
            t_ns, seq, *rest = entries[-1]
            entries[-1] = (t_ns, seq + 1, *rest)
            sim.fes.heap.extend(entries)  # in order, so a heap
        return end_state(pkg, built, sim, summary)

    monkeypatch.setattr(ab_run, "end_state", shifted)
    assert ab_run.main(["ab_run.py", str(ROOT), str(ROOT), "--rounds", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("round 1: end states differ in pending[99]: base [(1000")

"""tools/mutants.py's list, checked without running a mutant: each old text occurs
exactly once in its file, so a change that moves a rule moves its mutant too."""

import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_each_mutant_edits_one_place_and_names_tests_that_exist():
    assert mutants.check_list() == []
    assert len(mutants.MUTANTS) >= 37


def test_the_check_names_each_fault_of_a_list():
    Mutant = mutants.Mutant
    bad = (
        Mutant("twice", "sim.py", "self.pool", "self.chain", ("test_chain.py",)),
        Mutant("absent", "sim.py", "no such text", "x", ("no_such_test.py",)),
        Mutant("same", "cli.py", "if t != sim.next_block_time:", "if t != sim.next_block_time:",
               ("test_cli.py",)),
        Mutant("same", "cli.py", "if t != sim.next_block_time:", "if t:", ("test_cli.py",)),
    )
    problems = mutants.check_list(bad)
    assert problems[0] == "same: listed twice"
    assert "absent: no tests/no_such_test.py" in problems
    assert "absent: old text occurs 0 times in sim.py" in problems
    assert "same: the edit changes nothing" in problems
    assert any(p.startswith("twice: old text occurs") for p in problems)
    assert len(problems) == 5

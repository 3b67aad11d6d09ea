"""tests/mutants.py's mutants, each one operator changed; running them takes minutes and is left to the script."""

from difflib import ndiff

from mutants import ROOT, mutants


def test_each_mutant_changes_one_operator_token():
    path = ROOT / "src" / "qsl2" / "modrep.py"
    source = path.read_text()
    found = mutants(path, "WeightModule._validate")
    den = next(i for i, line in enumerate(source.splitlines(), 1) if "type(den) is not int" in line)
    # if type(den) is not int or den < 1 or quantum and den != 1: one mutant per operator, in order
    assert [change for where, change, _ in found if where.startswith(f"{den}:")] == [
        "is not -> is", "or -> and", "< -> >=", "or -> and", "and -> or", "!= -> =="]
    for where, change, mutated in found:
        removed, added = ([line[2:] for line in ndiff(source.splitlines(), mutated.decode().splitlines())
                           if line[0] == sign] for sign in "-+")
        assert len(removed) == len(added) == 1, where
        old, new = change.split(" -> ")
        assert old in removed[0] and new.replace("(dropped)", "") in added[0], where

"""The mutation audit keys each equivalence verdict to one site.

The audit runs the tests on copies of the package whose modules it has
rewritten, so these tests read a fixed source, never the package's.
"""

import mutation_audit

# the shape of DensityMatrix.__init__: m.shape[0] is read twice
SOURCE = '''
class DensityMatrix:

    def __init__(self, matrix):
        m = matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        dim = m.shape[0]
'''


def test_same_text_sites_get_their_own_verdicts():
    # the nudge m.shape[0] -> m.shape[1] is real in the squareness test
    # and equivalent at dim = ...
    sites = [
        site
        for site in mutation_audit._module_sites("qcore", SOURCE)
        if (site["original"], site["mutated"]) == ("m.shape[0]", "m.shape[1]")
    ]
    assert [(site["function"], site["line"], site["source"]) for site in sites] == [
        ("DensityMatrix.__init__", 6, "if m.ndim != 2 or m.shape[0] != m.shape[1]:"),
        ("DensityMatrix.__init__", 8, "dim = m.shape[0]"),
    ]
    verdicts = [mutation_audit._equivalence(site) for site in sites]
    assert verdicts[0] is None
    assert verdicts[1] == mutation_audit.EQUIVALENT[
        ("qcore", "DensityMatrix.__init__", "dim = m.shape[0]", "m.shape[0]", "m.shape[1]", 0)
    ]
    texts = [mutation_audit._mutant_text(site, SOURCE) for site in sites]
    assert "m.shape[1] != m.shape[1]" in texts[0] and "dim = m.shape[0]" in texts[0]
    assert "m.shape[0] != m.shape[1]" in texts[1] and "dim = m.shape[1]" in texts[1]


# the shape of cli.cmd_gate's rows: one line holds the tuple (0, 1) twice
ROWS = """
def rows(report):
    return [(a, b, report[(a, b)]) for a in (0, 1) for b in (0, 1)]
"""


def test_same_text_sites_on_one_line_get_their_own_verdicts(monkeypatch):
    sites = [
        site
        for site in mutation_audit._module_sites("cli", ROWS)
        if (site["original"], site["mutated"]) == ("(0, 1)", "(1, 1)")
    ]
    assert [(site["line"], site["occurrence"]) for site in sites] == [(3, 0), (3, 1)]
    key = mutation_audit._key(sites[1])
    assert key[-1] == 1 and mutation_audit._key(sites[0]) == key[:-1] + (0,)
    monkeypatch.setitem(mutation_audit.EQUIVALENT, key, "only the second tuple")
    assert [mutation_audit._equivalence(site) for site in sites] == [None, "only the second tuple"]
    texts = [mutation_audit._mutant_text(site, ROWS) for site in sites]
    assert "for a in (1, 1) for b in (0, 1)" in texts[0]
    assert "for a in (0, 1) for b in (1, 1)" in texts[1]

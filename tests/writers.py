"""Writers of the two text forms that the package reads but never writes
from a graph: the ``edges:`` instance descriptor of a claim row, which
``verify.graph_from_instance`` reads, and a path-cycle spec as a DSL term,
which ``dsl.parse_graph_dsl`` reads.  pytest does not collect this file.
"""


def graph_to_instance(g) -> str:
    """The descriptor ``edges:n=N;u-v,...`` that ``graph_from_instance`` reads."""
    return f"edges:n={g.n};" + ",".join(f"{u}-{v}" for u, v in g.edges())


def spec_to_dsl(spec) -> str:
    """Render a PCSpec as a DSL term that re-parses to the same graph."""
    body = "pc(" + ",".join(str(c) for c in spec.cycles) + ")"
    chord_items = [
        f"{i + 1}@{j}" for i, cl in enumerate(spec.chords) for j in cl
    ]
    if chord_items:
        body += "[chords:" + ",".join(chord_items) + "]"
    if spec.tail is not None:
        t, m = spec.tail
        body = f"vsum({body},{t - 1},path({m}),0)"
    return body

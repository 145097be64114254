"""DOT rendering of Hasse diagrams."""

from __future__ import annotations

from .poset import Poset


def dot_poset(poset: Poset, labels: list[str], name: str = "poset") -> str:
    """Graphviz source for the cover relation, edges pointing upward."""
    if len(labels) != poset.m:
        raise ValueError("one label per element is required")
    lines = [f'digraph "{name}" {{', "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for i, text in enumerate(labels):
        lines.append(f'  n{i} [label="{_escape(text)}"];')
    for i, j in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')

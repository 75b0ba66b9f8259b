#!/usr/bin/env python3
"""Sequence-length accounting across the fixture corpus.

Prints, per mesh: face count, component count, traversal records (always
2*faces + 2*components), total sequence length, and the length ratio against
the naive nine-tokens-per-face baseline. Large closed meshes settle near 0.222.

Usage: python scripts/compression_report.py [--bits 7] [--order dfs|bfs]
"""

from __future__ import annotations

import argparse

from meshtok.cli import _bits
from meshtok.core import connected_components
from meshtok.preprocess import quantize
from meshtok.procgen import big_torus, fixture_corpus
from meshtok.sequencer import encode, sequence_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bits", type=_bits, default=7)
    parser.add_argument("--order", choices=["dfs", "bfs"], default="dfs")
    args = parser.parse_args()

    meshes = fixture_corpus(args.bits)
    meshes.append(("big_torus_5500", quantize(big_torus(), args.bits)))

    header = f"{'mesh':<20} {'faces':>6} {'comps':>5} {'travrec':>8} {'length':>7} {'ratio':>7}"
    print(header)
    print("-" * len(header))
    for name, mesh in meshes:
        seq = encode(mesh, args.order)
        st = sequence_stats(seq)
        n_c = len(connected_components(mesh))
        assert st.n_traversal_records == 2 * st.n_faces + 2 * n_c
        ratio = f"{st.ratio:.4f}" if st.ratio is not None else "n/a"
        print(
            f"{name:<20} {st.n_faces:>6} {n_c:>5} {st.n_traversal_records:>8} "
            f"{st.length:>7} {ratio:>7}"
        )


if __name__ == "__main__":
    main()

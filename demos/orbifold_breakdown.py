"""Show how the unsensed non-orientable count assembles from its named exact terms.

Pick one genus and print the census term list: the rooted count averaged over
its 4n rootings, one period-2 term per quotient orbifold class, and one
period-l term per closed signature with a nonzero epimorphism coefficient.
Each term is a rational number; only the grand total is forced to be an
integer, and watching the fractions cancel is the point of the demo.
"""

from __future__ import annotations

from fractions import Fraction

from cubicmaps.census import nonorientable_terms, unsensed_cubic_nonorientable

SECTIONS = (
    ("rooted", "Rooted average over 4n rootings:"),
    ("h2", "Period-2 quotient orbifolds, keyed (orientable, genus, branch points):"),
    ("hl", "Closed signatures for periods l >= 2, keyed (l, genus, n_s, n_v):"),
)


def main() -> None:
    g = 4
    terms = [(key, Fraction(num, den)) for key, num, den in nonorientable_terms(g)]
    print(f"Non-orientable genus {g}, n = {3 * g - 3} edges.")
    subtotals = []
    for kind, title in SECTIONS:
        print()
        print(title)
        section = sorted((key, term) for key, term in terms if key[0] == kind)
        for key, term in section:
            print(f"  {key}: {term}")
        subtotals.append(sum((term for _, term in section), Fraction(0)))
        print(f"  subtotal: {subtotals[-1]}")

    total = sum(subtotals, Fraction(0))
    print()
    print(f"Assembly: {' + '.join(str(s) for s in subtotals)} = {total}")
    assert total == unsensed_cubic_nonorientable(g)
    print(f"Unsensed count at genus {g}: {total}")


if __name__ == "__main__":
    main()

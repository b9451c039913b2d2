#!/usr/bin/env python3
"""Tour of the ambient lattice: Gram data, pairings, divisibility.

Everything printed here is computed with exact integer arithmetic.
"""

from hyperwall import (
    admissible_square_div,
    basis_vector,
    bb_pair,
    divisibility,
    dual_class,
    make_k3_2_lattice,
    signature_of,
    vector_from_labels,
)


def main():
    lattice = make_k3_2_lattice()
    print("== the fixed degree-two lattice ==")
    print(f"rank        : {lattice.rank}")
    print(f"signature   : {lattice.signature()}")
    print(f"determinant : {lattice.determinant()}")
    print(f"basis       : {' '.join(lattice.basis_labels)}")
    print()

    e1, f1, delta = basis_vector("e1"), basis_vector("f1"), basis_vector("delta")
    h = vector_from_labels({"e1": 1, "f1": 1})
    lam = vector_from_labels({"e1": 2, "f1": 2, "delta": 3})

    print("== pairings ==")
    print(f"(e1, f1)        = {bb_pair(e1, f1)}   (hyperbolic plane)")
    print(f"(delta, delta)  = {bb_pair(delta, delta)}")
    print(f"(h, h)          = {bb_pair(h, h)}    with h = e1 + f1")
    print(f"(lam, lam)      = {bb_pair(lam, lam)}  with lam = 2h + 3 delta")
    print()

    print("== divisibility against the full lattice ==")
    for name, v in (("delta", delta), ("e1", e1), ("lam", lam)):
        dual = dual_class(v)
        print(
            f"div({name}) = {divisibility(v)}; dual class has denominator "
            f"{dual.denominator} and square {dual.square}"
        )
    print()

    print("== which (square, divisibility) pairs exist ==")
    for square in range(-2, -14, -2):
        row = []
        for div in (1, 2):
            row.append(f"div {div}: {'yes' if admissible_square_div(square, div) else 'no '}")
        print(f"square {square:>4}: " + "   ".join(row))
    print()
    print("divisibility 2 forces square = -2 mod 8, which is why (-4, 2)")
    print("never occurs and the wall squares are exactly -2 and -10.")

    print()
    print("== signatures of the building blocks ==")
    print(f"U     : {signature_of([[0, 1], [1, 0]])}")
    e8_block = [[lattice.gram[6 + i][6 + j] for j in range(8)] for i in range(8)]
    print(f"-E8   : {signature_of(e8_block)}")
    print(f"<-2>  : {signature_of([[-2]])}")


if __name__ == "__main__":
    main()

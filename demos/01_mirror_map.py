"""Mirror map of the quintic family, in exact rational arithmetic.

Builds the holomorphic period y0(x), the mirror coordinate q(x), its
inverse x(q), and checks the coefficient recursion of the underlying
fourth-order ODE.
"""

from mirrorcalc import kernels, quintic

chart = quintic.mirror_map(8)

print("y0(x)   =", chart.y0)
print("q(x)    =", chart.q_of_x)
print("x(q)    =", chart.x_of_q)
print("u(q)    =", chart.u_of_q)

print("\nx(q) coefficients are integers:",
      all(c.denominator == 1 for c in chart.x_of_q.coeffs))
print("q(x(q)) is the identity:",
      chart.q_of_x.compose(chart.x_of_q)
      == type(chart.x_of_q).identity(order=8, tag="q"))
print("ODE recursion holds to order 100:",
      kernels.picard_fuchs_check(kernels.period(100)))

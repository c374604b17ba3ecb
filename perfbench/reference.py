"""Fixed reference program: the benchmark's yardstick for host speed.

A classic RK4 integration of a damped pendulum in plain Python floats,
tuples and calls, the same kind of interpreter work as the program's
integrators, and independent of the program's code.  run.py times it as
a fresh process before and after every round and scales the measured
times by it (see README.md).  It takes about 0.17 s on the development
host.
"""

import math


def f(x, v):
    return v, -0.1 * v - math.sin(x) + 0.05 * math.cos(0.3 * x)


x, v, h = 1.0, 0.0, 0.01
for _ in range(40_000):
    k1 = f(x, v)
    k2 = f(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
    k3 = f(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
    k4 = f(x + h * k3[0], v + h * k3[1])
    x += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    v += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
print(repr(x), repr(v))

"""mixflow: 1D viscous compressible multi-velocity mixture flows.

Dual Eulerian / mass-coordinate solvers for a model where N components share
one density but carry their own velocities, plus diagnostics that audit the
discrete counterparts of the model's a priori bounds (energy budget, density
bounds, log-density balance, derivative norms) along every run.
"""

"""Wave-equation imaging from monostatic boundary data.

The toolkit reconstructs a nonnegative scattering potential from
collocated source/receiver time series: reduced-order models turn the
measured data into approximate internal wavefields, a linearized
Lippmann-Schwinger system is inverted by truncated SVD, and a forward
evaluation of the same integral completes the unmeasured off-diagonal
data so the whole loop can be iterated.
"""

__version__ = "0.1.0"

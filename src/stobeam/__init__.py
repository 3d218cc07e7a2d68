"""Structure-preserving simulation of a stochastically forced clamped-free beam.

The package is organised bottom-up:

- ``grid``       discrete beam geometry, Gram matrices, norms, membership checks
- ``operators``  drift generator blocks, adjoints, stability constants
- ``propagator`` Cayley time stepping, evolution-family diagnostics, Picard iteration
- ``noise``      spectral noise model, increment projection, Ito isometry diagnostics
- ``solver``     scenes, mild-solution paths, weak-form residuals, ensembles
- ``config``     flat key=value run configuration
- ``verify``     named self-checks used by the CLI
- ``cli``        command line front end

Names are imported from these modules; the root holds only ``__version__``.
"""

__version__ = "0.1.0"

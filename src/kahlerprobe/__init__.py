"""Numerical pipeline for the holonomy/Kahler dichotomy on chart-defined
Riemannian manifolds: geometry of metric almost complex structures, Karcher
averaging over holonomy orbits, the dichotomy constant, and an
end-to-end prober that certifies either a Kahler witness or a quantified
holonomy obstruction."""

__version__ = "0.1.0"

"""Feasibility-guided latent diffusion over a miniature sketch-extrude CAD language."""

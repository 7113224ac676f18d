"""Reverse-mode autodiff (autodiff), finite-difference gradient checking
(gradcheck) and seeded RNG with labeled substreams (rng)."""

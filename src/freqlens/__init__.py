"""Interpretable forecasting with learnable frequency bases.

The model decomposes an input window onto learned cosine bases, selects
the most informative frequencies, and forecasts through per-frequency
heads whose contributions sum exactly to the frequency-path prediction.
That additive structure makes per-frequency attributions satisfy the
completeness, faithfulness, null-frequency, and symmetry axioms and
coincide with exact Shapley values.
"""

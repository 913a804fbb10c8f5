"""Vision-transformer surrogate of the forecast model (paper §III-B).

A pure-NumPy ViT with hand-written backpropagation: patch embedding,
multi-head self-attention, MLP blocks with LayerNorm, Dropout and DropPath
regularisation, trained with Adam.  The surrogate emulates one
analysis-cycle step of the SQG dynamics and can be fine-tuned *online* with
observational data inside the real-time DA workflow.

The Table II architectures (157M / 1.2B / 2.5B parameters) are represented by
:mod:`repro.surrogate.presets` and costed exactly by
:mod:`repro.surrogate.flops`; laptop-scale presets are provided for the
accuracy experiments.
"""

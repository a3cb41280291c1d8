#!/usr/bin/env python3
# Tour of the differentiable primitives: forward behavior, then verifying
# every hand-written backward pass against central finite differences.

import numpy as np

from creditnet import (
    conv1d, conv1d_backward,
    maxpool1d, maxpool1d_backward,
    softmax_rows, layer_norm,
    elementwise, gradient_check,
    Parameter,
)

rng = np.random.default_rng(0)

# %% 1-D convolution (cross-correlation, valid padding)
x = np.array([[1.0, 2.0, 3.0, 4.0]])        # one channel, length 4
w = np.array([[[1.0, 0.0, -1.0]]])          # an edge-detector tap
out, cache = conv1d(x, w, b=np.array([0.0]), stride=1)
print("conv1d  x=[1 2 3 4], w=[1 0 -1] ->", out[0])  # [-2, -2]

g_x, g_w, g_b = conv1d_backward(cache, np.ones_like(out))
print("conv1d  upstream ones -> g_x", g_x[0], " g_w", g_w.ravel(), " g_b", g_b)

# %% max pooling routes gradient to the argmax only
x = np.array([[1.0, 3.0, 2.0, 5.0]])
out, cache = maxpool1d(x, window=2, stride=2)
print("maxpool [1 3 2 5] w=2 s=2 ->", out[0])         # [3, 5]
print("maxpool backward ones ->", maxpool1d_backward(cache, np.ones_like(out))[0])

# %% softmax is shift-invariant and safe for huge logits
print("softmax [0, 0]      ->", softmax_rows(np.array([[0.0, 0.0]]))[0])
print("softmax [1000, 0]   ->", softmax_rows(np.array([[1000.0, 0.0]]))[0])
print("softmax [5,5,5,5]   ->", softmax_rows(np.array([[5.0] * 4]))[0])

# %% layer norm: rows become mean 0 / var 1, then gain & shift
row = np.array([[2.0, 4.0, 6.0]])
out, _ = layer_norm(row, gain=np.ones(3), shift=np.zeros(3))
print("layer_norm [2 4 6]  ->", np.round(out[0], 4))

# %% the gradient-check harness: analytic grads vs central differences.
# f() must return the objective and refresh each Parameter's grad.
p = Parameter("p", rng.standard_normal(6))

def quadratic():
    p.grad[...] = p.value
    return float(0.5 * np.sum(p.value ** 2))

print("gradient_check on 0.5*||p||^2 :", gradient_check(quadratic, [p], seed=1))

# a deliberately corrupted gradient is flagged loudly
def corrupted():
    p.grad[...] = 1.1 * p.value
    return float(0.5 * np.sum(p.value ** 2))

print("gradient_check, grad off by 10%:", gradient_check(corrupted, [p], seed=1))

# %% same harness, but through a real composite op (relu . conv)
w = Parameter("w", 0.3 * rng.standard_normal((4, 2, 3)))
b = Parameter("b", np.zeros(4))
x_fixed = rng.standard_normal((2, 9))
g_fixed = rng.standard_normal((4, 7))

def conv_relu_objective():
    out, conv_cache = conv1d(x_fixed, w.value, b.value, 1)
    act, act_cache = elementwise("relu", out)
    loss = float(np.sum(act * g_fixed))
    from creditnet import elementwise_backward
    g = elementwise_backward(act_cache, g_fixed)
    _, g_w, g_b = conv1d_backward(conv_cache, g)
    w.grad[...] = g_w; b.grad[...] = g_b
    return loss

err = gradient_check(conv_relu_objective, [w, b], seed=2)
print("gradient_check through relu(conv1d):", f"{err:.2e}  (tolerance 1e-4)")

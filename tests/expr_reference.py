"""Reference evaluator for expression trees: the recursive walk that
expr's closures replace. It applies each node's operation to the same
operands in the same order, so the closures must match it bitwise."""

from koopman_lyap.expr import _FUNCTIONS


def evaluate(node, x):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return x[node[1] - 1]
    if op == "neg":
        return -evaluate(node[1], x)
    if op == "add":
        return evaluate(node[1], x) + evaluate(node[2], x)
    if op == "sub":
        return evaluate(node[1], x) - evaluate(node[2], x)
    if op == "mul":
        return evaluate(node[1], x) * evaluate(node[2], x)
    if op == "pow":
        return evaluate(node[1], x) ** node[2]
    if op in _FUNCTIONS:
        return _FUNCTIONS[op][0](evaluate(node[1], x))
    raise TypeError(f"unknown node {node!r}")

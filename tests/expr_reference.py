"""Reference evaluator for expression trees: the recursive walk that
expr's closures replace. It applies each node's operation to the same
operands in the same order, so the closures must match it bitwise."""

from koopman_lyap.expr import Add, Call, Const, Mul, Neg, Pow, Sub, Var, _FUNCTIONS


def evaluate(node, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate(node.arg, x)
    if isinstance(node, Add):
        return evaluate(node.left, x) + evaluate(node.right, x)
    if isinstance(node, Sub):
        return evaluate(node.left, x) - evaluate(node.right, x)
    if isinstance(node, Mul):
        return evaluate(node.left, x) * evaluate(node.right, x)
    if isinstance(node, Pow):
        return evaluate(node.base, x) ** node.exponent
    if isinstance(node, Call):
        return _FUNCTIONS[node.name][0](evaluate(node.arg, x))
    raise TypeError(f"unknown node {node!r}")

"""Code lines per source file and in total: lines that hold a token other
than a comment, with module, class and function docstrings left out.

Run as `python tests/code_lines.py src/kripkelab/*.py`.  CI prints these
counts after `wc -l`; the figures CHANGES.md reports come from here."""
import ast, io, sys, tokenize
total = 0
for path in sys.argv[1:]:
    src = open(path, encoding="utf-8").read()
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = len(code - docs)
    total += lines
    print(f"{lines:6d} {path}")
print(f"{total:6d} code lines (no docstrings, comments or blank lines)")

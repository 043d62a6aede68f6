"""The -h text and the usage line of ``abr``, rendered from ``cli._SPEC``,
the table ``cli`` reads argv by.  ``cli`` imports this module only to print
one of them, so no command that runs compiles it."""

import sys

from .cli import _HELP, EXIT_OK, EXIT_USAGE, _dest


def _shown(name, kind):
    return name if kind in (int, str) else "{" + ",".join(kind) + "}"


def usage(prog, node, full=False):
    """The usage line, or with ``full`` the -h text: it, then each
    subcommand, positional and option of ``node`` with its help."""
    text, _, positionals, options = node
    words, rows, flags = [prog], [], []
    for names, kind, default, help in (_HELP,) + options:
        meta = "" if kind is bool else " " + _shown(_dest(names).upper(), kind)
        word = names.split("/")[0] + meta
        words.append(word if default is ... else f"[{word}]")
        flags.append((names.replace("/", ", ") + meta, help))
    for name, kind, help in positionals:
        words.append(_shown(name, kind) + " ..." * (help is None))
        rows += [(sub, kind[sub][0]) for sub in kind] if help is None else [(name, help)]
    lines = [f"usage: {' '.join(words)}", "", text, ""]
    lines += [f"  {flag:<23} {help}" for flag, help in rows + flags]
    return "\n".join(lines if full else lines[:1])


def leave(prog, node, message=None):
    """Print the -h text of ``node`` and exit 0, or with ``message`` a
    usage error, the usage line and one error line, and exit 2."""
    if message is None:
        print(usage(prog, node, full=True))
        sys.exit(EXIT_OK)
    print(usage(prog, node), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    sys.exit(EXIT_USAGE)

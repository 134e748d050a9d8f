"""How an error message quotes a bad token from an input file."""

_QUOTE_CAP = 40  # longest token quoted in full


def quoted(token: str) -> str:
    """repr(token), or past _QUOTE_CAP characters the repr of a prefix that
    long and the length, so a message stays short for any input."""
    return repr(token) if len(token) <= _QUOTE_CAP else (
        f"{token[:_QUOTE_CAP]!r}... ({len(token)} characters)")

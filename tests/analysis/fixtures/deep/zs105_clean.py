"""ZS105 clean twin: walks that only read, plus non-walk mutators."""


class PureWalkArray:
    def __init__(self):
        self._lines = [[None, None]]
        self._pos = {}

    def _peek(self, address):
        return self._pos.get(address)

    def build_replacement(self, address):
        # Reads and local state only; candidate lists are walk-private.
        found = self._peek(address)
        candidates = [found] if found is not None else []
        return candidates

    def build_reinsertion(self, victim):
        return [c for c in self.build_replacement(victim) if c]

    def commit_replacement(self, repl, chosen):
        # Mutation is fine outside the walk: commit owns state changes.
        self._pos[repl] = chosen
        return chosen

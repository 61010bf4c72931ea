"""ZS105 fixture: candidate collection that mutates array state."""


class LeakyWalkArray:
    def __init__(self):
        self._lines = [[None, None]]
        self._pos = {}
        self.tags = []

    def _promote(self, address):
        # Reachable from the walk through one call edge.
        self._pos[address] = (0, 0)

    def build_replacement(self, address):
        self.tags.append(address)  # direct mutation inside the walk
        self._promote(address)
        return []

    def build_reinsertion(self, victim):
        del self._lines[0][0]  # delete through array storage
        return []

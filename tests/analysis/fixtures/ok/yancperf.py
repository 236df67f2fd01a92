# yanclint: scope=app
"""The remedies: scandir batching, batched RPC, indexed lookup, held fds."""

import random


class CoolPathApp:
    def __init__(self, sc, channel):
        self.sc = sc
        self.channel = channel
        self.index = {}

    def batched_scan(self, path):
        # One getdents+statx for the whole directory; no per-entry lstat.
        return self.sc.scandir(path)

    def batched_sync(self, items):
        # One round trip carries every item.
        self.channel.call("put_many", list(items))

    def lookup(self, key):
        # Indexed: no full-table scan on the hot path.
        return self.index.get(key)

    def lookup_bucketed(self, key):
        # Tuple-space probe: walks one hash bucket, never the whole table.
        for entry in self.index.get(key, []):
            if entry.live:
                return entry
        return None

    def relink_all(self, paths):
        for path in paths:
            try:
                self.sc.unlink(f"{path}/peer")  # EAFP: one resolution
            except FileNotFoundError:
                pass

    def drain(self, fd):
        # A held fd: fd-based reads resolve no paths, so no storm.
        out = []
        for _ in range(8):
            out.append(self.sc.read(fd, 512))
        return out

    def sample(self, path):
        # A project method named like random.Random's ...
        self.sc.stat(path)
        self.sc.listdir(path)
        return self.sc.read_text(f"{path}/log")

    def pick_pairs(self, hosts):
        # ... is not what a Random receiver's sample() runs: no syscall here.
        rng = random.Random(7)
        pairs = []
        for host in hosts:
            pairs.append((host, rng.sample(hosts, 2)))
        return pairs

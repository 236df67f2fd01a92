# yanclint: scope=app
"""Seeded isolation mistakes — every yancsec kind must fire here."""

from repro.distfs.rpc import RpcChannel
from repro.vfs.syscalls import Syscalls


class LeakyApp:
    def __init__(self, sc):
        self.sc = sc

    def follow_tenant_data(self, sw):
        # Tenant-controlled attribute flows straight into a path: whoever
        # authored the switch id picks which host record gets rewritten.
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")  # bad: tainted-path

    def forward_payload(self, sw, app, msg):
        payload = self.sc.read_text(f"/net/switches/{sw}/events/{app}/{msg}/data")
        self.sc.channel.call("write", payload.strip(), b"x")  # bad: tainted-path

    def publish_ip(self, mb, ip):
        # public_ip carries no schema ACL: only the creating driver uid can
        # write it, so this app-side publish silently relies on root.
        self.sc.write_text(f"/net/middleboxes/{mb}/public_ip", ip)  # bad: missing-acl

    # Metadata calls and queued ring entries are sinks like any path argument.
    def tag_tenant_host(self, sw):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        self.sc.setxattr(f"/net/hosts/{owner}", "user.owner", b"claimed")  # bad: tainted-path

    def share_tenant_host(self, sw, acl):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        self.sc.set_acl(f"/net/hosts/{owner}", acl)  # bad: tainted-path

    def drop_tenant_host(self, sw):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        self.ring.prep("unlink", f"/net/hosts/{owner}/owner")  # bad: tainted-path

    def clear_tenant_host(self, sw):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        self.ring.prep("truncate", f"/net/hosts/{owner}/owner", 0)  # bad: tainted-path

    # An overwrite in one arm of an `if` leaves the other arm's path tainted.
    def claim_unless_known(self, sw, known):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if known:
            owner = "default"
        else:
            pass
        self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")  # bad: tainted-path

    def claim_if_known(self, sw, known):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if known:
            pass
        else:
            owner = "default"
        self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")  # bad: tainted-path

    def claim_each_round(self, switches):
        # Loop-carried: the sink at the top reads what the bottom tainted.
        owner = "default"
        for sw in switches:
            self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")  # bad: tainted-path
            owner = self.sc.read_text(f"/net/switches/{sw}/id")

    def peek_master(self, root, sw):
        # Inside a shared namespace `..` climbs out of the slice root.
        return self.sc.read_text(f"{root}/../switches/{sw}/id")  # bad: slice-escape


def rogue_setup(vfs, acl):
    # Ambient root: the receiver was built without credentials, so every
    # mutation below runs as uid 0 where ACLs would grant a per-app uid.
    sc = Syscalls(vfs)
    sc.write_text("/net/switches/s1/id", "spoofed")  # bad: root-ambient
    sc.set_acl("/net/switches/s1/id", acl)  # bad: root-ambient
    sc.setxattr("/net/switches/s1/id", "user.owner", b"me")  # bad: root-ambient
    return sc


def open_channel(server):
    # No cred= — every op the channel carries runs as the *server*.
    return RpcChannel(server.handle)  # bad: unauthenticated-rpc

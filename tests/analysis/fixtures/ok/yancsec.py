# yanclint: scope=app
"""The well-behaved twins of bad/yancsec.py — yancsec must stay quiet."""

from repro.distfs.rpc import RpcChannel
from repro.vfs.cred import app_credentials
from repro.vfs.syscalls import Syscalls


def validate_name(name):
    return name.isalnum()


class PoliteApp:
    def __init__(self, sc):
        self.sc = sc

    def follow_tenant_data(self, sw, known_hosts):
        # Same flow as the bad twin, but a validator sits between the
        # tenant-controlled read and the path construction.
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if owner in known_hosts:
            self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")

    def forward_payload(self, sw, app, msg):
        payload = self.sc.read_text(f"/net/switches/{sw}/events/{app}/{msg}/data")
        if validate_name(payload):
            self.sc.channel.call("write", payload, b"x")

    def tag_tenant_host(self, sw, known_hosts):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if owner in known_hosts:
            self.sc.setxattr(f"/net/hosts/{owner}", "user.owner", b"claimed")

    def share_tenant_host(self, sw, acl, known_hosts):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if owner in known_hosts:
            self.sc.set_acl(f"/net/hosts/{owner}", acl)

    def drop_tenant_host(self, sw, known_hosts):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if owner in known_hosts:
            self.ring.prep("unlink", f"/net/hosts/{owner}/owner")

    def clear_tenant_host(self, sw, known_hosts):
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if owner in known_hosts:
            self.ring.prep("truncate", f"/net/hosts/{owner}/owner", 0)

    def claim_default(self, sw, known):
        # Both arms overwrite the tenant-controlled value before the sink.
        owner = self.sc.read_text(f"/net/switches/{sw}/id")
        if known:
            owner = "default"
        else:
            owner = "fallback"
        self.sc.write_text(f"/net/hosts/{owner}/owner", "claimed")

    def publish_port_state(self, sw, port, down):
        # config.port_down carries a schema ACL — collaboration is policy.
        self.sc.write_text(f"/net/switches/{sw}/ports/{port}/config.port_down", down)

    def peek_slice(self, root, sw):
        # Views are addressed downward only; no `..` in the token string.
        return self.sc.read_text(f"{root}/switches/{sw}/id")


def proper_setup(vfs, acl):
    # Per-app credentials from the start: least privilege by construction.
    sc = Syscalls(vfs, cred=app_credentials("polite"))
    sc.write_text("/net/switches/s1/id", "s1")
    sc.set_acl("/net/switches/s1/id", acl)
    sc.setxattr("/net/switches/s1/id", "user.owner", b"me")
    return sc


def open_channel(server, cred):
    # Caller identity threads through the channel (AUTH_SYS-style).
    return RpcChannel(server.handle, cred=cred)

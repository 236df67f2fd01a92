# yanclint: scope=app
"""Seeded defects: at least one per yancpath finding kind, marked inline."""

from repro.vfs import LINK_DIRFD, O_DIRECTORY
from repro.yancfs.client import YancClient


class BrokenApp:
    def __init__(self, sc):
        self.sc = sc
        self.root = "/net"

    def typo_container(self, sw):
        return self.sc.read_text(f"{self.root}/switchs/{sw}/id")  # bad: unknown-path

    def typo_flow_file(self, sw, flow):
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/priorty", "1")  # bad: unknown-path

    def unparseable_payload(self, sw, flow):
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/priority", "high")  # bad: bad-write-format,flow-no-commit

    def forgets_commit(self, sw, flow):
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/match.in_port", "3")  # bad: flow-no-commit

    def leaks_fd(self, path):
        fd = self.sc.open(path)  # bad: fd-leak-on-exception
        data = self.sc.read(fd, 100)
        self.sc.close(fd)
        return data

    def writes_event_buffer(self, sw):
        self.sc.write_text(f"/net/switches/{sw}/events/myapp/pi_1/in_port", "2")  # bad: event-buffer-misuse

    def reads_packet_out_spool(self, sw):
        return self.sc.read_bytes(f"/net/switches/{sw}/packet_out/p1.app.1")  # bad: event-buffer-misuse

    # A ring entry is judged as the call it queues.
    def queues_typo_mkdir(self, sw):
        self.ring.prep("mkdir", f"{self.root}/switches/{sw}/flws/f1")  # bad: unknown-path

    def queues_typo_unlink(self, sw):
        self.ring.prep("unlink", f"{self.root}/switchs/{sw}/id")  # bad: unknown-path

    def queues_typo_listdir(self, sw):
        self.ring.prep("listdir", f"{self.root}/switches/{sw}/evnets")  # bad: unknown-path

    def queues_typo_write(self, sw):
        self.ring.prep_write_file(f"{self.root}/switchs/{sw}/id", b"s1")  # bad: unknown-path

    def queues_typo_readdirplus(self, sw, entry):
        self.ring.prep("readdirplus", f"{self.root}/switches/{sw}/evnets/myapp/{entry}")  # bad: unknown-path

    def queues_typo_watch(self, ino, sw, flow, mask):
        self.ring.prep("inotify_add_watch", ino, f"{self.root}/switches/{sw}/flws/{flow}", mask)  # bad: unknown-path

    # A name under a directory descriptor is judged at the path it joins.
    def queues_typo_under_dirfd(self, sw, flow):
        self.ring.prep("open", f"{self.root}/switches/{sw}/flows/{flow}", O_DIRECTORY, link=True)
        self.ring.prep_write_file("match.nw_dts", b"10.0.0.0/8", link=True, dir_fd=LINK_DIRFD)  # bad: unknown-path,flow-no-commit
        self.ring.prep("close", LINK_DIRFD)

    def queues_event_buffer_write(self, sw):
        self.ring.prep_write_file(f"/net/switches/{sw}/events/myapp/pi_1/in_port", b"2")  # bad: event-buffer-misuse

    # The metadata calls resolve their path like any other.
    def reads_typo_xattr(self, sw):
        return self.sc.getxattr(f"{self.root}/switchs/{sw}/id", "user.owner")  # bad: unknown-path

    def writes_typo_xattr(self, sw):
        self.sc.setxattr(f"{self.root}/switches/{sw}/idd", "user.owner", b"me")  # bad: unknown-path


class StagingApp:
    """Drives the real ``YancClient`` (swept alongside this fixture)."""

    def __init__(self, sc):
        self.client = YancClient(sc)

    def stages_without_commit(self, sw, flow, match, actions):
        self.client.create_flow(sw, flow, match, actions, commit=False)  # bad: flow-no-commit

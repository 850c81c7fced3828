"""Walk through request-based windows by hand.

A window freezes the tenant's whole queue at establishment: its length (ql),
how long the head had been waiting (tw), and the arrival-index range
[boundary_lo, boundary_hi] that defines membership.  Requests arriving later
belong to the *next* window, even if worker cores dequeue them early while
the current window is still completing.
"""

from qwinsim import new_window
from qwinsim.backend import Tenant
from qwinsim.workload import Request

US = 1_000


def enqueue(t, now, n):
    for _ in range(n):
        r = Request(t.label, 4096, arrive_at=now)
        t.arrivals += 1
        r.seq = t.arrivals
        t.queue.append(r)
    print(f"t={now / US:7.1f}us  +{n} arrivals  "
          f"(queue={len(t.queue)}, total seen={t.arrivals})")


t = Tenant("lc0", True, slo_ns=4_000_000)

print("== first window ==")
enqueue(t, 0, 5)
win = new_window(t, 120 * US)
print(f"t={120.0:7.1f}us  window {win.wid}: ql={win.ql} tw={win.tw / US:g}us "
      f"members=[{win.boundary_lo}..{win.boundary_hi}] "
      f"outstanding={win.outstanding}")

# Requests 6..8 arrive while window 1 is active: they are next-window members.
enqueue(t, 200 * US, 3)
print(f"             window {win.wid} still spans "
      f"[{win.boundary_lo}..{win.boundary_hi}]; seqs 6..8 wait for window 2")

# Cores may dequeue and even complete next-window members before window 1 is
# done.  Such early completions are remembered, so window 2 does not count
# them as outstanding work.
t.completed_gap += 2
print("             2 next-window members completed early (gap recorded)")

# Worker cores drain the 5 members; once they all complete, the window ends
# (and the runtime clears t.win).
for _ in range(5):
    t.queue.popleft()
t.win = None
print(f"             5 members served; window {win.wid} complete "
      f"(queue={len(t.queue)})\n")

print("== second window ==")
win2 = new_window(t, 400 * US)
print(f"t={400.0:7.1f}us  window {win2.wid}: ql={win2.ql} "
      f"members=[{win2.boundary_lo}..{win2.boundary_hi}] "
      f"outstanding={win2.outstanding} (3 members - 2 early completions)")

print("\nMembership ranges chain with no gap or overlap:")
print(f"  window 1 -> [{win.boundary_lo}..{win.boundary_hi}]")
print(f"  window 2 -> [{win2.boundary_lo}..{win2.boundary_hi}]")
print("so every request belongs to exactly one window.")

"""Discrete-event simulation kernel.

A from-scratch generator-coroutine DES in the style of SimPy. Simulation
processes are generators that yield :class:`~repro.sim.events.Event`
objects; the :class:`~repro.sim.environment.Environment` advances virtual
time and resumes them. All higher layers of this project — the Kubernetes
control plane, the GPU devices, the KubeShare controllers — run as
processes on this kernel, giving fully deterministic, seedable runs.

The kernel keeps only the primitives the program calls: one binary heap
of ``(time, priority, seq)`` entries (:mod:`~repro.sim.calqueue`),
cancellable events and timeouts, processes that can be interrupted or
killed, :class:`AllOf`, and two FIFO queues — :class:`Resource` for the
container runtime's setup slots and the unbounded :class:`Store` for
watch streams and work queues.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0
"""

from .environment import EmptySchedule, Environment
from .events import AllOf, ConditionValue, Event, Interrupt, PENDING, Timeout
from .process import Process, ProcessGenerator
from .resources import Resource, Store

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "ConditionValue",
    "AllOf",
    "Interrupt",
    "PENDING",
    "Process",
    "ProcessGenerator",
    "Resource",
    "Store",
]

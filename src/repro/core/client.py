"""The Cactus client: the client-side CQoS service component.

"The client provides an operation cactus_request(requestID) that the stub
can use to notify it of the request arrival … [it] blocks until the request
has been completed.  The implementation … simply raises the appropriate
event newRequest, with the actual processing done by various
micro-protocols."  (paper, section 2.3.2)

The composite is created with a :class:`~repro.core.interfaces.ClientPlatform`
(stored in shared data under ``"platform"``) and a configuration of
micro-protocols.  At minimum the configuration must include
:class:`~repro.qos.base.ClientBase`; :meth:`CactusClient.with_base` builds
that default.

The synchronous-invocation assumption of the prototype is kept, and the
extension the paper mentions is provided too: :meth:`cactus_request_async`
returns immediately with the request, whose ``wait()`` collects the result.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.cactus.composite import CompositeProtocol, MicroProtocol
from repro.cactus.runtime import CactusRuntime
from repro.core.events import EV_NEW_REQUEST
from repro.core.interfaces import ClientPlatform
from repro.core.request import Request

SHARED_PLATFORM = "platform"


class CactusClient(CompositeProtocol):
    """Client-side composite protocol holding the QoS micro-protocols."""

    def __init__(
        self,
        platform: ClientPlatform,
        micro_protocols: Iterable[MicroProtocol] = (),
        name: str = "cactus-client",
        runtime: CactusRuntime | None = None,
        request_timeout: float | None = 30.0,
        compiled_dispatch: bool | None = None,
    ):
        super().__init__(name, runtime=runtime, compiled_dispatch=compiled_dispatch)
        self.platform = platform
        self.request_timeout = request_timeout
        self.shared.set(SHARED_PLATFORM, platform)
        self.configure(micro_protocols)

    @classmethod
    def with_base(
        cls,
        platform: ClientPlatform,
        extra: Iterable[MicroProtocol] = (),
        **kwargs: Any,
    ) -> "CactusClient":
        """Build a client configured with ClientBase plus ``extra``.

        QoS micro-protocols bind earlier than the base handlers, so they are
        installed first in either case; ``extra`` order is preserved.
        """
        from repro.qos.base import ClientBase

        return cls(platform, list(extra) + [ClientBase()], **kwargs)

    def cactus_request(self, request: Request) -> Any:
        """Process ``request``; block until completed; return its result.

        Raises whatever the request failed with (remote application
        exceptions, communication errors, QoS policy errors).
        """
        self.raise_event(EV_NEW_REQUEST, request)
        return request.wait(self.request_timeout)

    def cactus_request_async(self, request: Request) -> Request:
        """Asynchronous-invocation extension: start processing, don't block.

        The caller collects the outcome with ``request.wait()``.
        """
        self.raise_event(EV_NEW_REQUEST, request, mode="async")
        return request

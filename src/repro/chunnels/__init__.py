"""The Chunnel library: specs and implementations for every Chunnel type.

Importing this package populates the process-wide implementation catalog
(:data:`repro.core.catalog`) and the optimizer's algebraic-traits table
(:data:`repro.core.default_traits`).  Applications then register the
fallbacks they link against (Listing 5) with their runtime, and operators
register offloaded variants with the discovery service.

Chunnel types provided (paper section in parentheses):

=================  =====================================================
``local_or_remote``  pipe IPC on a shared host, datagrams otherwise (§3.2)
``serialize``        objects ↔ bytes, negotiable codec (§3.2)
``reliable``         ack/retransmit delivery (Listing 5)
``ordered``          per-source in-order delivery
``tcp``              coarse reliability+ordering (§2 minimality)
``encrypt``          symmetric payload encryption (§6 example)
``http2``            content-agnostic framing (§6 example)
``tls``              fused encrypt+tcp (§6 merge target)
``shard``            key-affine request steering (Listing 4, Figure 5)
``ordered_mcast``    sequencer-ordered group delivery (Listing 2)
``multipath``        weighted per-packet spreading over disjoint tunnels
``kvcache``          in-switch KV read cache with write-through (§6 offload)
``fanin``            scatter/gather RPC with in-switch reply aggregation
``ratelimit``        token-bucket send pacing (PicNIC-class shaping)
=================  =====================================================
"""

from ..core.optimizer import default_traits
from .encrypt import Encrypt, EncryptFallback, EncryptSmartNic, keystream_cipher
from .http2 import FRAME_HEADER_SIZE, Http2, Http2Fallback
from .local_fastpath import LocalOrRemote, LocalOrRemoteFallback
from .multicast import (
    GAP_HEADER,
    GROUP_HEADER,
    SEQ_HEADER,
    GroupSequencer,
    McastSequencerFallback,
    McastSwitchSequencer,
    OrderedMcast,
    SequencerProgram,
    sequencer_service_name,
)
from .multipath import (
    MULTIPATH_TUNNEL_HEADER,
    MultipathWeighted,
    WeightedMultipath,
)
from .offload import (
    FanIn,
    FanInHost,
    FanInSwitch,
    KvCache,
    KvCacheHostPath,
    KvCacheSwitch,
    SwitchFanInProgram,
    SwitchKvCacheReader,
    SwitchKvCacheWriter,
    combine_replies,
    split_combined_value,
)
from .ordering import Ordered, OrderedFallback
from .ratelimit import RateLimit, RateLimitFallback
from .reliability import Reliable, ReliableFallback, ReliableToe
from .serialize import (
    BincodeCodec,
    Codec,
    JsonCodec,
    Serialize,
    SerializeAccelerated,
    SerializeFallback,
    get_codec,
    register_codec,
)
from .sharding import (
    REPLY_TO_HEADER,
    HashBytes,
    Shard,
    ShardClientFallback,
    ShardFunction,
    ShardServerFallback,
    ShardSwitch,
    ShardXdp,
    XdpShardProgram,
)
from .tcp import Tcp, TcpFallback, TcpToe
from .tls import Tls, TlsFallback, TlsSmartNic

__all__ = [
    "BincodeCodec",
    "Codec",
    "Encrypt",
    "EncryptFallback",
    "EncryptSmartNic",
    "FRAME_HEADER_SIZE",
    "FanIn",
    "FanInHost",
    "FanInSwitch",
    "GAP_HEADER",
    "GROUP_HEADER",
    "GroupSequencer",
    "HashBytes",
    "Http2",
    "Http2Fallback",
    "JsonCodec",
    "KvCache",
    "KvCacheHostPath",
    "KvCacheSwitch",
    "LocalOrRemote",
    "LocalOrRemoteFallback",
    "MULTIPATH_TUNNEL_HEADER",
    "McastSequencerFallback",
    "McastSwitchSequencer",
    "MultipathWeighted",
    "Ordered",
    "OrderedFallback",
    "OrderedMcast",
    "REPLY_TO_HEADER",
    "RateLimit",
    "RateLimitFallback",
    "Reliable",
    "ReliableFallback",
    "ReliableToe",
    "SEQ_HEADER",
    "SequencerProgram",
    "Serialize",
    "SerializeAccelerated",
    "SerializeFallback",
    "Shard",
    "ShardClientFallback",
    "ShardFunction",
    "ShardServerFallback",
    "ShardSwitch",
    "ShardXdp",
    "SwitchFanInProgram",
    "SwitchKvCacheReader",
    "SwitchKvCacheWriter",
    "Tcp",
    "TcpFallback",
    "TcpToe",
    "Tls",
    "TlsFallback",
    "TlsSmartNic",
    "WeightedMultipath",
    "XdpShardProgram",
    "combine_replies",
    "get_codec",
    "keystream_cipher",
    "register_codec",
    "sequencer_service_name",
    "split_combined_value",
]


def _register_traits() -> None:
    """Teach the optimizer the Chunnel algebra (§6's transformations)."""
    # Framing is content-agnostic: it commutes with payload transforms.
    default_traits.register_commutes("encrypt", "http2")
    # Redundant-duplicate elimination targets.
    default_traits.register_idempotent("ordered")
    default_traits.register_idempotent("reliable")
    # The §6 merge: encrypt |> tcp fuses into tls.
    default_traits.register_merge("encrypt", "tcp", "tls")
    # §6 specialization: over an already-reliable in-order transport
    # (pipes), these Chunnels add nothing but cost.
    default_traits.register_subsumed_by_reliable_transport("reliable")
    default_traits.register_subsumed_by_reliable_transport("ordered")
    default_traits.register_subsumed_by_reliable_transport("tcp")


_register_traits()

"""The whole-trace reference: a config's links and (slots x users) SNR and
rate matrices, drawn in one ``draw_fast_fading`` call from ``schedsim.channel``'s
public functions alone.  It shares no code with the engine's block source,
which the tests check against it."""
import numpy as np

from schedsim.channel import UserLink, draw_fast_fading, draw_shadowing, instantaneous_rate, place_users, snr


def whole_trace(config, links=None):
    """(links, SNRs, rates) of ``config``'s trace, in the random stream's order: placement, shadowing, then
    the fading of every slot.  Caller ``links`` skip the first two, so their fading starts the stream."""
    rng, channel = np.random.default_rng(config.seed), config.channel
    if links is None:
        distances = place_users(config.n_users, channel.cell_radius_m, config.placement, rng)
        shadows = draw_shadowing(rng, channel.shadowing_sigma_db, size=config.n_users)
        links = [UserLink(k, float(d), float(s)) for k, (d, s) in enumerate(zip(distances, shadows))]
    shape = (config.total_slots, config.n_users)
    gains = draw_fast_fading(rng, size=shape) if channel.fast_fading_enabled else np.ones(shape)
    snrs = gains * np.array([snr(channel, link) for link in links])
    return links, snrs, instantaneous_rate(snrs, channel)

"""Plausible slot values and the display form of dates.

A leaf module: the mock backend draws record and slot values from here, and
the plot builder draws the alternative values of self-corrections, so both
use one table per slot kind whichever backend is configured.
"""

from __future__ import annotations

import datetime as dt
import random
from typing import Optional

__all__ = [
    "WEEKDAYS",
    "FIRST_NAMES",
    "JOB_LEVELS",
    "PLACES",
    "format_date",
    "parse_display_date",
    "sample_value",
]

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

FIRST_NAMES = [
    "Alex", "Maria", "James", "Wei", "Priya", "Omar", "Elena", "David",
    "Aisha", "Carlos", "Yuki", "Fatima", "Liam", "Sofia", "Noah", "Amara",
]
JOB_LEVELS = ("senior", "intermediate", "entry-level", "not-specified")
PLACES = [
    "Las Vegas", "Houston", "Miami", "Seattle", "Denver", "Chicago",
    "Boston", "Austin",
]
_EVENT_NAMES = [
    "Art Class", "Team Standup", "Dentist Appointment", "Yoga Session",
    "Book Club", "Project Review", "Piano Lesson", "Soccer Practice",
]
_ALARM_NAMES = [
    "Morning Workout", "Family Dinner", "Wake Up", "Medication",
    "School Run", "Evening Walk",
]
_REMINDER_CONTENTS = [
    "water the plants", "call the dentist", "submit the report",
    "buy groceries", "renew the car insurance", "pick up the laundry",
]
_MESSAGE_CONTENTS = [
    "See you at noon", "Running late, sorry", "Happy birthday!",
    "Meeting moved to Friday", "Can you call me back?", "Dinner at our place?",
]
_MOVIE_TITLES = [
    "Joker", "Dune", "Inside Out", "The Batman", "Oppenheimer", "Up",
]
_DURATIONS = ["30 minutes", "1 hour", "1.5 hours", "2 hours"]


def format_date(d: dt.date) -> str:
    """Display form with weekday, e.g. 'Wed 2025-04-16'."""
    return f"{WEEKDAYS[d.weekday()]} {d.isoformat()}"


def parse_display_date(text: Optional[str]) -> dt.date:
    """The date of a display form such as 'Wed 2025-04-16' (the weekday is
    ignored); 2025-04-16 when the text is missing or not a date."""
    try:
        return dt.date.fromisoformat(text.split()[-1])
    except (AttributeError, IndexError, ValueError):
        return dt.date(2025, 4, 16)


def sample_value(rng: random.Random, slot: str, potential_values,
                 today: dt.date, names: Optional[list] = None):
    """Deterministic plausible value for a slot, keyed off its name."""
    if potential_values:
        return rng.choice(list(potential_values))
    s = slot.lower()
    if s in ("attendees", "recipient", "sender") and names:
        return rng.choice(names)
    if "date" in s:
        return format_date(today + dt.timedelta(days=rng.randint(1, 14)))
    if "duration" in s:
        return rng.choice(_DURATIONS)
    if "time" in s:
        return f"{rng.randint(6, 21):02d}:{rng.choice(['00', '15', '30', '45'])}"
    if s in ("ticket_quantity", "party_size"):
        return rng.randint(1, 4)
    if s == "amount":
        return rng.randint(10, 500)
    if s in ("price",):
        return rng.randint(80, 400)
    if s in ("balance",):
        return rng.randint(100, 9000)
    if s in ("rating",):
        return f"{rng.randint(30, 50) / 10:.1f}"
    if "phone" in s:
        return f"555-{rng.randint(1000, 9999)}"
    if "email" in s:
        name = rng.choice(names or FIRST_NAMES).split()[0].lower()
        return f"{name}@example.com"
    if s in ("movie_name",):
        return rng.choice(_MOVIE_TITLES)
    if s in ("cinema_name",):
        return rng.choice(["Regal Cinemas", "AMC Downtown", "Cineworld Plaza"])
    if s in ("restaurant",):
        return rng.choice(["French Brasserie", "Blue Ribbon Diner", "Casa Verde"])
    if s in ("hotel_name",):
        return rng.choice(["Grand Plaza Hotel", "Lakeside Inn", "Harborview Suites"])
    if s in ("location", "home_space"):
        return rng.choice(PLACES)
    if s == "content":
        return rng.choice(_REMINDER_CONTENTS + _MESSAGE_CONTENTS)
    if s == "name" and names:
        return rng.choice(names)
    if s == "name":
        return rng.choice(_EVENT_NAMES + _ALARM_NAMES)
    if "condition" in s or s == "weather":
        return rng.choice(["sunny", "cloudy", "light rain", "snow", "windy"])
    if s == "temperature":
        return f"{rng.randint(30, 90)}F"
    if s == "status":
        return rng.choice(["on", "off", "idle"])
    if s == "if_repeat":
        return rng.choice(["True", "False"])
    return rng.choice(_EVENT_NAMES)

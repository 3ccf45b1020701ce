"""Baseline measurement methodologies the paper compares against."""
